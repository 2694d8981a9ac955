package xquery

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

// The lazy overlay leaf layer (core.AddHierarchy builds an overlay's
// leaves only on first read) and the leaf-free axis candidates the step
// evaluators request (nodeTest.candidates) must be invisible in results:
// these tests drive analyze-string shapes that reach the leaf layer after
// overlays exist, collected, drained and cut short by Take(k), against
// the interpreter oracle, and pin how many leaf layers the paper's queries
// build.

// overlayResolver backs doc() with a fixed document map; the shapes
// never call collection().
type overlayResolver map[string]*core.Document

func (m overlayResolver) ResolveDoc(name string) (*core.Document, error) {
	d, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("no document %q", name)
	}
	return d, nil
}

func (m overlayResolver) ResolveCollection(string) ([]*core.Document, error) {
	return nil, fmt.Errorf("no collections")
}

// overlayPatterns are analyze-string patterns: single letters, a
// multi-match, an Example 1 fragment pattern, a dot-star pattern, a
// class and a pattern that never matches.
var overlayPatterns = []string{"e", "n", "en", "un<a>a</a>we", ".*e.*", "[aeiou]", "(ge|un)", "zq"}

// overlayProbes are the expressions evaluated once an overlay exists;
// $r is the analyze-string result, K and J positions. Most reach the
// leaf layer of the newest overlay (leaf(), node(), leaf-context axes),
// the rest run leaf-free tests over the same axes, including ones whose
// unknown hierarchy must raise MHXQ0001 at the oracle's point.
var overlayProbes = []string{
	`$r/descendant::leaf()`,
	`$r/xdescendant::node()`,
	`$r/descendant::leaf()[K]/following::leaf()[J]`,
	`$r/descendant::leaf()[last()]/preceding::leaf()[J]`,
	`$r/xdescendant::*[K]`,
	`$r/xdescendant::text()`,
	`$r/descendant-or-self::node()[K]`,
	`$r/descendant::text()/child::node()`,
	`$r/descendant::leaf()/parent::node()`,
	`$r/descendant::leaf()[K]/ancestor::*`,
	`$r/descendant::leaf()[K]/following-sibling::node()[J]`,
	`$r/descendant::leaf()[K]/xancestor::node()`,
	`$r/descendant::m[K]/xfollowing::node()[J]`,
	`$r/descendant::m/xpreceding::*[J]`,
	`$r/descendant::m/xancestor::node()`,
	`$r/descendant::m[xdescendant::leaf()]`,
	`$r/xdescendant::leaf('physical')`,
	`$r/child::node()[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')]`,
	`$r/descendant::m('nope')`,
	`$r/xdescendant::leaf('nope')`,
	`/descendant::w[K]/following::leaf()[J]`,
	`/descendant::w[K]/xfollowing::w[J]`,
	`/descendant::leaf()[K]/xancestor::*`,
	`count(/descendant::leaf())`,
	`count(/descendant::node())`,
}

// overlayShape instantiates one seeded analyze-string shape: an overlay
// wrapper (one call, one call per word in a for loop, a call on an
// overlay node, or calls over a doc() document) around a probe.
func overlayShape(r *rand.Rand) string {
	probe := overlayProbes[r.Intn(len(overlayProbes))]
	probe = strings.NewReplacer("K", fmt.Sprint(1+r.Intn(4)), "J", fmt.Sprint(1+r.Intn(3))).Replace(probe)
	pat := overlayPatterns[r.Intn(len(overlayPatterns))]
	body := fmt.Sprintf(`(count(%s), "#", %s)`, probe, probe)
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf(`let $r := analyze-string((/descendant::w)[%d], "%s") return %s`, 1+r.Intn(5), pat, body)
	case 1:
		return fmt.Sprintf(`for $w in /descendant::w[position() <= %d]
return (let $r := analyze-string($w, "%s") return %s, "|")`, 1+r.Intn(4), pat, body)
	case 2:
		return fmt.Sprintf(`let $r0 := analyze-string((/descendant::w)[%d], "%s")
let $r := analyze-string(($r0/child::node())[%d], "%s") return %s`,
			1+r.Intn(4), pat, 1+r.Intn(2), overlayPatterns[r.Intn(len(overlayPatterns))], body)
	default:
		return fmt.Sprintf(`for $w in doc("beta")/descendant::w[position() <= %d]
return (let $r := analyze-string($w, "%s") return %s, "|")`, 1+r.Intn(3), pat, body)
	}
}

// TestLazyOverlayDifferential runs 120 seeded analyze-string shapes on
// three documents: the engine, collected, drained and cut short by
// Take(k), must match the interpreter oracle (full axis candidates) in results and
// error codes. It also checks the shapes really built lazy leaf layers.
func TestLazyOverlayDifferential(t *testing.T) {
	docs := map[string]*core.Document{"boethius": corpus.MustBoethius()}
	for _, p := range []corpus.Params{
		{Seed: 2, Words: 8, DamageRate: 0.4, RestoreRate: 0.4},
		{Seed: 6, Words: 30, DamageRate: 0.2, RestoreRate: 0.2},
	} {
		d, err := corpus.Generate(p).Document()
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("gen-seed%d", p.Seed)] = d
	}
	beta, err := corpus.Generate(corpus.Params{Seed: 5, Words: 12, DamageRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	res := overlayResolver{"beta": beta}
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)

	r := rand.New(rand.NewSource(14))
	before := core.GlobalIndexStats()
	errorsSeen := 0
	for i := 0; i < 120; i++ {
		src := overlayShape(r)
		for _, name := range names {
			fast, ref, fastErr, refErr := evalBothWith(t, docs[name], src, res)
			if errCode(fastErr) != errCode(refErr) || (fastErr == nil) != (refErr == nil) {
				t.Errorf("%s: shape %d %q:\n  engine err=%v\n  oracle err=%v", name, i, src, fastErr, refErr)
				continue
			}
			if fastErr != nil {
				errorsSeen++
				continue
			}
			// Overlay nodes are rebuilt per evaluation: compare
			// serializations, which carry every node's markup or text.
			if Serialize(fast) != Serialize(ref) {
				t.Errorf("%s: shape %d %q:\n  engine: %s\n  oracle: %s", name, i, src, Serialize(fast), Serialize(ref))
			}
		}
	}
	after := core.GlobalIndexStats()
	if after.OverlayLeafBuilds == before.OverlayLeafBuilds || after.Overlays == before.Overlays {
		t.Errorf("shapes created %d overlays and built %d leaf layers; the sweep must exercise both",
			after.Overlays-before.Overlays, after.OverlayLeafBuilds-before.OverlayLeafBuilds)
	}
	if errorsSeen == 0 {
		t.Error("no shape raised an error: the error-code half of the differential is untested")
	}
}

// TestOverlayLeafBuildCounters pins the cost model the lazy leaf layer
// exists for: the paper's Queries II.1 and III.1 navigate their
// overlays through elements only and build no leaf layer even over a
// 100× manuscript, while a shape that reads the leaves of each overlay
// builds exactly one layer per overlay.
func TestOverlayLeafBuildCounters(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 6, Words: 600, DamageRate: 0.12, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	matches := strings.Count(d.Text, "unawe")
	if matches < 2 {
		t.Fatalf("fixture has %d matching words, want several", matches)
	}
	perWordLeaves := `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return count(analyze-string($w, ".*unawe.*")/descendant::leaf())`
	for _, tc := range []struct {
		name, src string
		builds    int
	}{
		{"II.1", queryII1Src, 0},
		{"III.1", queryIII1Src, 0},
		{"per-word leaves", perWordLeaves, matches},
	} {
		q := MustCompile(tc.src)
		for _, route := range []string{"collected", "drained"} {
			before := core.GlobalIndexStats()
			var err error
			if route == "collected" {
				_, err = q.Eval(d)
			} else {
				_, err = q.Stream(nil, d, nil, nil).Take(0)
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.name, route, err)
			}
			after := core.GlobalIndexStats()
			if got := int(after.Overlays - before.Overlays); got != matches {
				t.Errorf("%s (%s): %d overlays created, want %d", tc.name, route, got, matches)
			}
			if got := int(after.OverlayLeafBuilds - before.OverlayLeafBuilds); got != tc.builds {
				t.Errorf("%s (%s): %d overlay leaf layers built, want %d", tc.name, route, got, tc.builds)
			}
		}
	}
}

// TestAnalyzeStringKeepsEarlyExit: only the operators whose source or
// per-item body calls analyze-string collect their sources; every other
// part of such a query keeps its early exit. Taking three items of
// (analyze-string((//w)[1], "o"), //w) scans one word for the first
// operand and two for the second.
func TestAnalyzeStringKeepsEarlyExit(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 600}).Document()
	if err != nil {
		t.Fatal(err)
	}
	q := MustCompile(`(analyze-string((//w)[1], "o"), //w)`)
	s, render := q.StreamExplain(nil, d, nil, nil)
	if got, err := s.Take(3); err != nil || len(got) != 3 {
		t.Fatalf("Take(3) = %d items, err=%v", len(got), err)
	}
	var rows []int64
	var walk func(op *ExplainOp)
	walk = func(op *ExplainOp) {
		if op.Op == "index-scan" {
			rows = append(rows, op.OutRows)
		}
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(render())
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Fatalf("index scans produced %v rows after a 3-item pull, want [1 2] (3 in all)", rows)
	}
}

// TestAnalyzeStringOrderSweep holds seeded for, quantifier and filter
// shapes whose per-item bodies call analyze-string over leaf()- and
// word-sourced bindings (//vline/w, //line/xdescendant::w) to the
// interpreter's evaluation order. Each
// call refines the leaves of the node it analyzes, which may lie ahead
// of the binding ($x/following::w, the fifth word), so a source pushed
// item by item past a call would see leaves the interpreter's
// materialized source does not, and a trailing count(/descendant::leaf())
// sees every overlay built before it, as does a source whose items are
// read off the document's leaves. The engine's drained result and
// every Take(k) prefix must match the oracle in results and error
// codes.
func TestAnalyzeStringOrderSweep(t *testing.T) {
	docs := map[string]*core.Document{"boethius": corpus.MustBoethius()}
	for _, p := range []corpus.Params{
		{Seed: 3, Words: 10, DamageRate: 0.3},
		{Seed: 8, Words: 25, DamageRate: 0.2, RestoreRate: 0.2},
	} {
		d, err := corpus.Generate(p).Document()
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("gen-seed%d", p.Seed)] = d
	}
	sources := []string{
		`//line/descendant::leaf()`, `/descendant::leaf()[position() <= K]`,
		`//vline/w`, `(//vline/w)[position() > J]`, `//line/xdescendant::w`,
		// Items read off the active document's leaves as they are
		// pushed.
		`(for $y in //vline/w return (/descendant::leaf())[J + 4])`,
	}
	targets := []string{`$x`, `($x/following::w)[1]`, `(/descendant::w)[5]`}
	shapes := []string{
		`for $x in SRC return (count(analyze-string(T, "P")/child::m), count(/descendant::leaf()))`,
		`for $x in SRC where exists(analyze-string(T, "P")/child::m) return ($x, /descendant::leaf()[J])`,
		`(some $x in SRC satisfies count(analyze-string(T, "P")/child::m) > K, count(/descendant::leaf()))`,
		`(every $x in SRC satisfies exists(analyze-string(T, "P")/child::node()), /descendant::leaf()[K])`,
		`((SRC)[let $x := . return exists(analyze-string(T, "P")/child::m)], count(/descendant::leaf()))`,
		`((SRC)[let $x := . return count(analyze-string(T, "P")/descendant::leaf()) > 1][J], /descendant::leaf())`,
		`(exists((SRC)[let $x := . return analyze-string(T, "P")/child::m]), count(/descendant::leaf()))`,
		`(SRC)[let $x := . return exists(analyze-string(T, "P")/child::m('nope'))]`,
		`(exists(for $x in SRC return analyze-string(T, "P")/child::node()), count(/descendant::leaf()))`,
		`(boolean(for $x in SRC return analyze-string(T, "P")), /descendant::leaf()[K])`,
	}
	r := rand.New(rand.NewSource(28))
	errorsSeen := 0
	for i := 0; i < 300; i++ {
		src := strings.NewReplacer(
			"SRC", sources[r.Intn(len(sources))],
			"T", targets[r.Intn(len(targets))],
			"P", overlayPatterns[r.Intn(len(overlayPatterns))],
		).Replace(shapes[r.Intn(len(shapes))])
		src = strings.NewReplacer("K", fmt.Sprint(1+r.Intn(6)), "J", fmt.Sprint(1+r.Intn(3))).Replace(src)
		q := MustCompile(src)
		for name, d := range docs {
			label := fmt.Sprintf("shape %d (%s): %q", i, name, src)
			ref, refErr := oracleEval(q, d, nil, nil)
			got, err := q.Stream(nil, d, nil, nil).Take(0)
			switch {
			case (err == nil) != (refErr == nil) || errCode(err) != errCode(refErr):
				t.Errorf("%s: engine err=%v, oracle err=%v", label, err, refErr)
			case err == nil && Serialize(got) != Serialize(ref):
				t.Errorf("%s:\n  engine: %s\n  oracle: %s", label, Serialize(got), Serialize(ref))
			}
			if refErr != nil {
				errorsSeen++
			}
			checkTakes(t, label, func() *Stream { return q.Stream(nil, d, nil, nil) }, ref, refErr, sameSerialization)
		}
	}
	if errorsSeen == 0 {
		t.Error("no shape raised an error: the error-code half of the sweep is untested")
	}
}
