package xquery

import (
	"fmt"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// The differential property test of the order-aware pipeline: every
// query must produce byte-for-byte (in fact node-for-node) the result of
// the reference interpreter (oracleEval), which sortDedupes after every
// step, on realistic four-hierarchy documents.

// diffQueries exercises every axis, hierarchy-qualified tests, constant
// positional predicates, reverse axes, multi-context merging, unions and
// primary steps.
var diffQueries = []string{
	`/descendant::w`,
	`/descendant::line`,
	`/child::node()`,
	`/descendant::line/descendant::leaf()`,
	`/descendant::vline/child::w`,
	`/descendant::vline/child::w[1]`,
	`/descendant::vline/child::w[2]`,
	`/descendant::vline/child::w[last()]`,
	`/descendant::vline/child::node()[2]`,
	`/descendant::w[7]`,
	`/descendant::w[0.5]`,
	`/descendant::w[100000]`,
	`/descendant::w[position() <= 3]`,
	`/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]`,
	`/descendant::w[overlapping::line]`,
	`/descendant::w/ancestor::node()`,
	`/descendant::w/ancestor-or-self::node()`,
	`/descendant::leaf()/parent::node()`,
	`/descendant::leaf()/ancestor::node()`,
	`/descendant::leaf()[5]/ancestor::*`,
	`/descendant::w/following-sibling::w`,
	`/descendant::w/preceding-sibling::w`,
	`/descendant::w[2]/following::node()`,
	`/descendant::w[2]/preceding::node()`,
	`/descendant::line[1]/xfollowing::w`,
	`/descendant::line[last()]/xpreceding::w`,
	`/descendant::w/xancestor::node()`,
	`/descendant::line/xdescendant::w`,
	`/descendant::line/overlapping::node()`,
	`/descendant::w/preceding-overlapping::node()`,
	`/descendant::w/following-overlapping::node()`,
	`/descendant::w[3]/ancestor::node()[1]`,
	`/descendant::w[3]/ancestor-or-self::node()[2]`,
	`/descendant::w[3]/xpreceding::node()[last()]`,
	`/descendant::w[3]/preceding::node()[1]`,
	`/descendant::leaf()[4]/parent::node()[last()]`,
	`/descendant::w[3]/xancestor::node()[1]`,
	`/descendant::node()/self::w`,
	`/descendant::text()`,
	`/descendant::*('structure')`,
	`/descendant::node('damage')`,
	`/descendant::leaf('physical,damage')`,
	`(/descendant::w | /descendant::line)/descendant::leaf()`,
	`/descendant::vline/child::w/descendant::leaf()`,
	`/descendant::w/parent::node()/child::w`,
	`/descendant::w/string(.)`,
	`for $l in /descendant::line[xdescendant::w or overlapping::w] return string($l)`,
	`for $w in /descendant::w[position() <= 2]
	   return (for $leaf in $w/descendant::leaf() return $leaf, "|")`,
	`count(/descendant::w[xancestor::res or xdescendant::res or overlapping::res])`,
	`/descendant::w[string-length(string(.)) > 4]`,
	`(/descendant::w, /descendant::w)/child::node()`,
	`/descendant::dmg/xdescendant::leaf()`,
	`/descendant::res/attribute::*`,
}

// diffDocs builds the differential corpus: the Boethius fixture plus
// generated manuscripts at several scales and damage rates.
func diffDocs(t *testing.T) map[string]*core.Document {
	t.Helper()
	docs := map[string]*core.Document{"boethius": corpus.MustBoethius()}
	for _, p := range []corpus.Params{
		{Seed: 1, Words: 8},
		{Seed: 2, Words: 8, DamageRate: 0.4, RestoreRate: 0.4},
		{Seed: 3, Words: 30, DamageRate: 0.2},
		{Seed: 4, Words: 60},
	} {
		d, err := corpus.Generate(p).Document()
		if err != nil {
			t.Fatal(err)
		}
		docs[fmt.Sprintf("gen-seed%d-w%d", p.Seed, p.Words)] = d
	}
	return docs
}

// evalBoth evaluates src against d with the engine and the reference
// evaluator, returning both results (and their errors). The engine runs
// collected (Eval), drained through a Stream, and cut short by
// Take(k): the drain must agree with Eval exactly, and every Take(k)
// prefix with the reference (checkTakes), before the caller compares
// the results.
func evalBoth(t *testing.T, d *core.Document, src string) (fast, ref Seq, fastErr, refErr error) {
	t.Helper()
	return evalBothWith(t, d, src, nil)
}

// evalBothWith is evalBoth with a resolver backing doc()/collection().
func evalBothWith(t *testing.T, d *core.Document, src string, r Resolver) (fast, ref Seq, fastErr, refErr error) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	fast, fastErr = q.EvalWithResolver(d, nil, r)
	streamed, streamErr := q.Stream(nil, d, nil, r).Take(0)
	if (fastErr == nil) != (streamErr == nil) || errCode(fastErr) != errCode(streamErr) {
		t.Errorf("%q: eval err=%v, stream err=%v", src, fastErr, streamErr)
	} else if fastErr == nil && !sameItems(fast, streamed) &&
		Serialize(fast) != Serialize(streamed) { // constructors build fresh nodes per run
		t.Errorf("%q: eval and stream disagree:\n  eval:   %s\n  stream: %s",
			src, Serialize(fast), Serialize(streamed))
	}
	ref, refErr = oracleEval(q, d, nil, r)
	checkTakes(t, src, func() *Stream { return q.Stream(nil, d, nil, r) }, ref, refErr, sameOrSerialized)
	return
}

// sameOrSerialized compares results by node identity, or by
// serialization when they hold nodes each evaluation constructs anew.
func sameOrSerialized(a, b Seq) bool { return sameItems(a, b) || Serialize(a) == Serialize(b) }

// checkTakes holds the prefixes Take(k), k = 1..3, of fresh streams to
// want (wantErr): the first k items of want, or want's error code when
// the evaluation fails before k items. When want is an error a prefix
// may still succeed — the evaluation stopped before the error — but
// then it holds k items.
func checkTakes(t *testing.T, label string, stream func() *Stream, want Seq, wantErr error, same func(a, b Seq) bool) {
	t.Helper()
	for k := 1; k <= 3; k++ {
		got, err := stream().Take(k)
		switch {
		case err != nil:
			if wantErr == nil || errCode(err) != errCode(wantErr) {
				t.Errorf("%s: Take(%d) err=%v, want err=%v", label, k, err, wantErr)
			}
		case wantErr != nil:
			if len(got) != k {
				t.Errorf("%s: Take(%d) = %d items without error, want err=%v", label, k, len(got), wantErr)
			}
		case !same(got, want[:min(k, len(want))]):
			t.Errorf("%s: Take(%d) = %s, want the prefix of %s", label, k, Serialize(got), Serialize(want))
		}
	}
}

// errCode is an evaluation error's code, "" for nil or uncoded errors.
func errCode(err error) string {
	if e, ok := err.(*Error); ok {
		return e.Code
	}
	return ""
}

func sameItems(a, b Seq) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		na, aok := a[i].(*dom.Node)
		nb, bok := b[i].(*dom.Node)
		if aok != bok {
			return false
		}
		if aok {
			if na != nb { // node identity, not just equal serialization
				return false
			}
			continue
		}
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPipelineMatchesReference(t *testing.T) {
	t.Parallel()
	for name, d := range diffDocs(t) {
		for _, src := range diffQueries {
			fast, ref, fastErr, refErr := evalBoth(t, d, src)
			if (fastErr == nil) != (refErr == nil) {
				t.Errorf("%s: %q: pipeline err=%v, reference err=%v", name, src, fastErr, refErr)
				continue
			}
			if fastErr != nil {
				continue
			}
			if !sameItems(fast, ref) {
				t.Errorf("%s: %q:\n  pipeline:  %s\n  reference: %s",
					name, src, Serialize(fast), Serialize(ref))
			}
		}
	}
}

// TestPipelineMatchesReferenceErrors checks the error-path equivalence:
// unknown hierarchies in node tests must surface (or not) at the same
// evaluation points.
func TestPipelineMatchesReferenceErrors(t *testing.T) {
	t.Parallel()
	d := corpus.MustBoethius()
	for _, src := range []string{
		`/descendant::w('nope')`,                   // unknown hierarchy, candidates exist
		`/descendant::zzz('nope')`,                 // name matches nothing: no error
		`/descendant::zzz('nope')[1]`,              // positional fast path, no candidates pass
		`/descendant::w('nope')[1]`,                // positional fast path, candidates pass
		`/descendant::w('nope')[last()]`,           // backward fast path
		`/descendant::node('physical,damage')`,     // valid multi-hierarchy restriction
		`/descendant::comment('nope')`,             // comment tests ignore hierarchies
		`count(/descendant::leaf('nope'))`,         // leaf test with unknown hierarchy
		`/descendant::w[xdescendant::q('absent')]`, // nested inside a predicate
	} {
		fast, ref, fastErr, refErr := evalBoth(t, d, src)
		if (fastErr == nil) != (refErr == nil) {
			t.Errorf("%q: pipeline err=%v, reference err=%v", src, fastErr, refErr)
			continue
		}
		if fastErr != nil {
			fe, fok := fastErr.(*Error)
			re, rok := refErr.(*Error)
			if !fok || !rok || fe.Code != re.Code {
				t.Errorf("%q: pipeline err=%v, reference err=%v", src, fastErr, refErr)
			}
			continue
		}
		if !sameItems(fast, ref) {
			t.Errorf("%q: results differ", src)
		}
	}
}

// TestPipelineConstructedTrees checks the order-degenerate fallback:
// paths over constructed result trees (no document ordinals) must match
// the reference stable-sort behavior exactly.
func TestPipelineConstructedTrees(t *testing.T) {
	t.Parallel()
	d := corpus.MustBoethius()
	for _, src := range []string{
		`let $x := <a><b>1</b><c><b>2</b></c></a> return $x/descendant::b`,
		`let $x := <a><b>1</b><c><b>2</b></c></a> return $x/descendant::b/ancestor::node()`,
		`let $x := <a><b>1</b><b>2</b><b>3</b></a> return $x/child::b[2]`,
		`let $x := <a><b>1</b><b>2</b><b>3</b></a> return $x/child::b[last()]`,
		`let $x := <a f="1" g="2"><b/></a> return $x/attribute::*`,
		`let $x := <a><b>1</b></a> return ($x/child::b, /descendant::w)/child::node()`,
		`let $x := <a><w>1</w><c><w>2</w></c></a> return ($x, /descendant::vline)/descendant::w`,
		`let $x := <a><w>1</w><w>2</w></a> return (/descendant::vline, $x)/descendant-or-self::w[2]`,
		`let $x := <a><w>1</w></a> return ($x/child::w, /)/descendant::w[overlapping::dmg]`,
	} {
		fast, ref, fastErr, refErr := evalBoth(t, d, src)
		if fastErr != nil || refErr != nil {
			t.Fatalf("%q: err %v / %v", src, fastErr, refErr)
		}
		// Constructors build fresh nodes per evaluation, so node identity
		// cannot match across the two runs; compare serializations.
		if len(fast) != len(ref) || Serialize(fast) != Serialize(ref) {
			t.Errorf("%q:\n  pipeline:  %s\n  reference: %s", src, Serialize(fast), Serialize(ref))
		}
	}
}

// TestPipelineOverlayQueries runs the differential check across
// analyze-string overlays (temporary hierarchies, document switching).
func TestPipelineOverlayQueries(t *testing.T) {
	t.Parallel()
	d := corpus.MustBoethius()
	for _, src := range []string{
		`for $w in /descendant::w[string(.) = 'unawendendne']
		   return analyze-string($w, "en")/descendant::m`,
		`for $w in /descendant::w[position() <= 2]
		   return (let $r := analyze-string($w, "e")
		           return $r/descendant::leaf()/xancestor::node())`,
		`for $w in /descendant::w[1]
		   return analyze-string($w, "ge")/child::node()[last()]`,
	} {
		fast, ref, fastErr, refErr := evalBoth(t, d, src)
		if fastErr != nil || refErr != nil {
			t.Fatalf("%q: err %v / %v", src, fastErr, refErr)
		}
		// Overlay nodes are rebuilt per evaluation, so compare
		// serializations rather than node identity.
		if Serialize(fast) != Serialize(ref) {
			t.Errorf("%q:\n  pipeline:  %s\n  reference: %s", src, Serialize(fast), Serialize(ref))
		}
	}
}

// unorderedContexts are paths whose first step's context list fails
// segmentsOrdered on some planChoiceDocs document — nested elements,
// mixed hierarchies under node(), the root beside an element, constructed
// nodes beside document nodes, atomic items — so the step collects its
// segments and puts them in order, whether it is the path's last step or
// not. The path is (start)rest.
var unorderedContexts = []struct{ start, rest string }{
	{`/descendant::*`, `/descendant::leaf()`},
	{`/descendant::*`, `/descendant::w`},
	{`/descendant::*`, `/descendant::w[string(.) != 'x']/descendant::leaf()`},
	{`/descendant::*`, `/descendant-or-self::a[1]`},
	{`/descendant::*`, `/child::node()`},
	{`(/descendant::*)[last()], (/descendant::*)[1]`, `/descendant::leaf()`},
	{`/, (/descendant::*)[1]`, `/descendant::leaf()`},
	{`/, (/descendant::*)[2]`, `/descendant::w[overlapping::line]`},
	{`/, /`, `/descendant::w[string(.) != 'x']/child::node()`},
	{`<w><w>a</w><a><w>b</w></a></w>, (/descendant::*)[1]`, `/descendant::w`},
	{`(/descendant::*)[1], <w><w>a</w><a><w>b</w></a></w>`, `/descendant-or-self::w[string(.) != 'b']`},
	{`(/descendant::*)[1], <a><a>x</a><b><a>y</a></b></a>`, `//a[1]`},
	{`/descendant::*`, `//a[1]`},
	{`/descendant::*`, `//w[2]/descendant::leaf()`},
	{`(//a)[2], (//a)[1]`, `//a[last()]`},
	{`1, /descendant::*`, `/descendant::leaf()`},
	{`(/descendant::*)[1], 'a'`, `//w[1]`},
	{`/descendant::*, 2`, `/descendant::w`},
	{`'a', /descendant::*`, `/descendant::w/descendant::leaf()`},
	{`/descendant::*`, `/descendant::w('nope')`},
}

// TestStepRouteUnorderedContexts holds the collected step route to the
// AST oracle, error codes included, on the context lists no path step
// can push in order, three runs each on one published version (so root
// scans among them sight, store and read their survivor sets).
func TestStepRouteUnorderedContexts(t *testing.T) {
	t.Parallel()
	docs := planChoiceDocs(t)
	for _, c := range unorderedContexts {
		src := "(" + c.start + ")" + c.rest
		q := MustCompile(src)
		unordered := false
		for name, d := range docs {
			if cur, err := MustCompile(c.start).Eval(d); err == nil && !segmentsOrdered(&evalState{doc: d}, cur, q.plan.prog.(*pPath).ops[0]) {
				unordered = true
			}
			for _, q := range []*Query{q, MustCompile("count(" + src + ")")} {
				want, wantErr := oracleEval(q, d, nil, nil)
				for run := 1; run <= 3; run++ {
					got, err := q.Eval(d)
					switch {
					case (err == nil) != (wantErr == nil) || errCode(err) != errCode(wantErr):
						t.Errorf("%s: %q run %d: err=%v, want err=%v", name, q.Source(), run, err, wantErr)
					case err == nil && !sameOrSerialized(got, want):
						t.Errorf("%s: %q run %d = %s, want %s", name, q.Source(), run, Serialize(got), Serialize(want))
					}
				}
			}
		}
		if !unordered {
			t.Errorf("%q: every document's contexts pass segmentsOrdered", src)
		}
	}
}
