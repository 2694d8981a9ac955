package xquery

import (
	"fmt"
	"math/rand"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

// The seeded random differential sweep: generated FLWOR, predicate and
// quantifier queries must evaluate node-identically — with identical
// error points — through the cursor engine (both its strict eval and
// full-drain stream routes) and the reference interpreter
// (oracleEval). Together with TestPlanDifferentialRandomPaths
// (plan_test.go, random path shapes) this is the property suite the
// whole-query lowering rests on.

// qgen generates random queries from a seeded source. Generated queries
// always parse; evaluation may legitimately error (unknown hierarchies,
// type errors), and then both engines must fail with the same code.
type qgen struct{ r *rand.Rand }

func (g *qgen) pick(ss ...string) string { return ss[g.r.Intn(len(ss))] }

func (g *qgen) name() string {
	return g.pick("w", "line", "vline", "res", "dmg", "zzz")
}

func (g *qgen) hier() string {
	return g.pick("physical", "verse", "restoration", "damage", "structure", "nope")
}

func (g *qgen) axis() string {
	return g.pick(
		"child", "descendant", "descendant-or-self", "self",
		"parent", "ancestor", "ancestor-or-self",
		"following", "preceding", "following-sibling", "preceding-sibling",
		"xdescendant", "xancestor", "xfollowing", "xpreceding",
		"overlapping", "preceding-overlapping", "following-overlapping",
	)
}

func (g *qgen) test() string {
	switch g.r.Intn(8) {
	case 0:
		return "*"
	case 1:
		return "text()"
	case 2:
		return "node()"
	case 3:
		return "leaf()"
	case 4:
		return g.name() + "('" + g.hier() + "')"
	default:
		return g.name()
	}
}

// step emits one axis step, with a predicate at shrinking probability.
func (g *qgen) step(depth int) string {
	s := g.axis() + "::" + g.test()
	if depth > 0 && g.r.Intn(3) == 0 {
		s += "[" + g.pred(depth-1) + "]"
	}
	return s
}

// path emits an absolute or variable-rooted path of 1–3 steps.
func (g *qgen) path(depth int, varName string) string {
	n := 1 + g.r.Intn(3)
	p := ""
	for i := 0; i < n; i++ {
		p += "/" + g.step(depth)
	}
	if varName != "" && g.r.Intn(2) == 0 {
		return "$" + varName + p
	}
	if g.r.Intn(4) == 0 {
		return "//" + g.test() + p
	}
	return p
}

// sjStep emits an extended-axis existence step of the semi-join shape:
// a plain, hierarchy-qualified or shared-root name, optionally with a
// string filter.
func (g *qgen) sjStep() string {
	s := g.pick("xancestor", "xdescendant", "overlapping", "preceding-overlapping", "following-overlapping") + "::"
	switch g.r.Intn(6) {
	case 0:
		s += g.name() + "('" + g.hier() + "')"
	case 1:
		s += "r"
	default:
		s += g.name()
	}
	switch g.r.Intn(6) {
	case 0, 1:
		s += fmt.Sprintf("[string(.) = '%s']", g.pick("singallice", "folc", "a", ""))
	case 2:
		s += "[" + g.pick("xancestor", "xdescendant", "overlapping") + "::" + g.name() + "]"
	}
	return s
}

// pred emits one predicate expression.
func (g *qgen) pred(depth int) string {
	switch g.r.Intn(11) {
	case 8:
		return g.sjStep()
	case 9:
		return g.sjStep() + g.pick(" or ", " and ") + g.sjStep()
	case 10:
		return g.sjStep() + " or " + g.sjStep() + " or " + g.sjStep()
	case 0:
		return fmt.Sprint(1 + g.r.Intn(4))
	case 1:
		return "last()"
	case 2:
		return fmt.Sprintf("position() <= %d", 1+g.r.Intn(3))
	case 3:
		return fmt.Sprintf("string-length(string(.)) > %d", g.r.Intn(6))
	case 4:
		return fmt.Sprintf("string(.) = '%s'", g.pick("singallice", "folc", "a", ""))
	case 5:
		if depth > 0 {
			return g.relPath(depth-1) + " or " + g.relPath(depth-1)
		}
		return "position() = 1"
	case 6:
		if depth > 0 {
			return "exists(" + g.relPath(depth-1) + ")"
		}
		return "true()"
	default:
		return g.relPath(depth)
	}
}

// relPath emits a relative path of 1–2 steps (predicate shape).
func (g *qgen) relPath(depth int) string {
	p := g.step(depth)
	if g.r.Intn(2) == 0 {
		p += "/" + g.step(depth)
	}
	return p
}

// flwor emits a FLWOR expression.
func (g *qgen) flwor(depth int) string {
	v := g.pick("x", "y")
	q := "for $" + v
	if g.r.Intn(4) == 0 {
		q += " at $p"
	}
	q += " in " + g.path(depth, "")
	inner := v
	if g.r.Intn(3) == 0 {
		w := v + "2"
		q += " for $" + w + " in " + g.path(depth-1, v)
		inner = w
	}
	if g.r.Intn(3) == 0 {
		q += " let $l := " + g.pick("string($"+inner+")", "count($"+inner+"/child::node())")
	}
	if g.r.Intn(2) == 0 {
		q += " where " + g.pick(
			"exists($"+inner+"/"+g.step(0)+")",
			"string-length(string($"+inner+")) > 2",
			"$"+inner+"/"+g.step(0),
		)
	}
	if g.r.Intn(3) == 0 {
		q += " order by " + g.pick("string($"+inner+")", "string-length(string($"+inner+"))")
		if g.r.Intn(2) == 0 {
			q += " descending"
		}
	}
	q += " return " + g.pick(
		"$"+inner,
		"string($"+inner+")",
		"($"+inner+", '|')",
		"$"+inner+"/"+g.step(0),
	)
	return q
}

// quant emits a quantified expression.
func (g *qgen) quant(depth int) string {
	v := g.pick("q", "z")
	return g.pick("some", "every") + " $" + v + " in " + g.path(depth, "") +
		" satisfies " + g.pick(
		"exists($"+v+"/"+g.step(0)+")",
		"string-length(string($"+v+")) > 1",
		"$"+v+"/"+g.step(0),
	)
}

// query emits one top-level query.
func (g *qgen) query() string {
	switch g.r.Intn(6) {
	case 0:
		return g.flwor(2)
	case 1:
		return g.quant(2)
	case 2:
		return g.pick("count", "exists", "empty") + "(" + g.path(2, "") + ")"
	case 3:
		return "(" + g.path(2, "") + ")[" + g.pred(1) + "]"
	case 4:
		return "if (" + g.quant(1) + ") then " + g.flwor(1) + " else " + g.path(1, "")
	default:
		return g.path(2, "")
	}
}

// sweepDocs are the documents the sweep runs against: the Boethius
// fixture plus one generated manuscript with damage overlap.
func sweepDocs(t *testing.T) map[string]*core.Document {
	t.Helper()
	d, err := corpus.Generate(corpus.Params{Seed: 7, Words: 20, DamageRate: 0.3, RestoreRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*core.Document{
		"boethius": corpus.MustBoethius(),
		"gen":      d,
	}
}

// TestSweepFLWORPredicatesQuantifiers is the ≥200-case seeded sweep.
func TestSweepFLWORPredicatesQuantifiers(t *testing.T) {
	t.Parallel()
	docs := sweepDocs(t)
	g := &qgen{r: rand.New(rand.NewSource(20260729))}
	const cases = 300
	for i := 0; i < cases; i++ {
		checkAgainstOracle(t, i, g.query(), docs)
	}
}

// TestSweepPathShapes sweeps 220 seeded path and (path)[pred] shapes,
// plus the semi-join and unverified-context shapes, over the sweep documents and a 120-word
// manuscript whose index scans run long candidate lists through their
// predicates.
func TestSweepPathShapes(t *testing.T) {
	t.Parallel()
	docs := sweepDocs(t)
	big, err := corpus.Generate(corpus.Params{Seed: 11, Words: 120, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	docs["big"] = big

	var srcs []string
	g := &qgen{r: rand.New(rand.NewSource(20260808))}
	for i := 0; i < 160; i++ {
		srcs = append(srcs, g.path(2, ""))
	}
	for i := 0; i < 60; i++ {
		srcs = append(srcs, "("+g.path(2, "")+")["+g.pred(1)+"]")
	}
	srcs = append(srcs, semiJoinShapes...)
	srcs = append(srcs, unverifiedContextShapes...)
	for i, src := range srcs {
		checkAgainstOracle(t, i, src, docs)
	}
}

// checkAgainstOracle evaluates one generated query on every document
// through the cursor engine's strict route, its full-drain stream route
// and the reference interpreter (oracleEval): results must be
// identical, and an error must carry the same code on all three.
func checkAgainstOracle(t *testing.T, i int, src string, docs map[string]*core.Document) {
	t.Helper()
	checkAgainstOracleBy(t, i, src, docs, sameItems)
}

// sameSerialization compares results by their serialization, for
// queries whose results hold nodes each evaluation constructs anew.
func sameSerialization(a, b Seq) bool { return Serialize(a) == Serialize(b) }

// checkAgainstOracleBy is checkAgainstOracle with results compared by
// same.
func checkAgainstOracleBy(t *testing.T, i int, src string, docs map[string]*core.Document, same func(a, b Seq) bool) {
	t.Helper()
	q, err := Compile(src)
	if err != nil {
		t.Fatalf("case %d: generated query does not parse: %q: %v", i, src, err)
	}
	for name, d := range docs {
		fast, fastErr := q.Eval(d)
		streamed, streamErr := drainStream(q.Stream(nil, d, nil, nil))

		ref, refErr := oracleEval(q, d, nil, nil)

		if (fastErr == nil) != (refErr == nil) {
			t.Errorf("case %d (%s): %q\n  cursor err=%v\n  oracle err=%v", i, name, src, fastErr, refErr)
			continue
		}
		if fastErr != nil {
			fe, fok := fastErr.(*Error)
			re, rok := refErr.(*Error)
			if !fok || !rok || fe.Code != re.Code {
				t.Errorf("case %d (%s): %q: error codes differ: %v vs %v", i, name, src, fastErr, refErr)
			}
			if se, sok := streamErr.(*Error); !sok || !fok || se.Code != fe.Code {
				t.Errorf("case %d (%s): %q: stream error %v, eval error %v", i, name, src, streamErr, fastErr)
			}
			continue
		}
		if streamErr != nil {
			t.Errorf("case %d (%s): %q: stream err=%v, eval ok", i, name, src, streamErr)
			continue
		}
		if !same(fast, ref) {
			t.Errorf("case %d (%s): %q\n  cursor: %s\n  oracle: %s", i, name, src, Serialize(fast), Serialize(ref))
		}
		if !same(fast, streamed) {
			t.Errorf("case %d (%s): %q\n  eval:   %s\n  stream: %s", i, name, src, Serialize(fast), Serialize(streamed))
		}
	}
}

// semiJoinShapes are the extended-axis existence predicates the planner
// lowers to semi-joins: the paper's predicates, every axis, and/or
// trees, filtered and nested-filtered targets, nested and
// cross-hierarchy candidate segments, the shared root and unresolvable
// hierarchies as targets, and the single-item shapes that stay per node.
var semiJoinShapes = []string{
	`//w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]`,
	`//w[overlapping::line]`,
	`//w[overlapping::dmg]`,
	`count(//w[overlapping::line])`,
	`/descendant::line[xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]`,
	`/descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]`,
	`//res[preceding-overlapping::line]`,
	`//res[following-overlapping::line and xancestor::vline]`,
	`//line[xdescendant::w and not(overlapping::dmg)]`,
	`//line[(xdescendant::res or overlapping::res) and xdescendant::dmg]`,
	`//dmg[xancestor::w or xancestor::res]`,
	`//w[xancestor::r]`,
	`//w[overlapping::r or xdescendant::r]`,
	`//w[overlapping::dmg('damage')]`,
	`//w[overlapping::dmg('nope')]`,
	`//w[xancestor::vline('nope') or overlapping::line]`,
	`//w[overlapping::line or xancestor::vline('nope')]`,
	`//w[overlapping::zzz]`,
	`//vline/w[overlapping::dmg]`,
	`//vline/descendant::w[xdescendant::dmg or overlapping::res]`,
	`//node()[overlapping::dmg]`,
	`//*[xancestor::line]`,
	`//text()[xancestor::dmg]`,
	`/descendant::line/xdescendant::w[overlapping::dmg]`,
	`//line/xdescendant::*[overlapping::res]`,
	`//w/ancestor::*[overlapping::dmg]`,
	`(//w)[3][overlapping::dmg]`,
	`//w[2][overlapping::line]`,
	`//w[overlapping::line][2]`,
	`//w[overlapping::dmg][last()]`,
	`//w[overlapping::dmg[string(.) != 'a']][string-length(string(.)) > 3]`,
	`for $w in //w[overlapping::line] return string($w)`,
	`for $v in /descendant::vline for $w in $v/child::w where exists($w/overlapping::dmg) return string($w)`,
	`some $l in //line satisfies exists($l/xdescendant::w[overlapping::dmg])`,
	`count(//line[xdescendant::w[overlapping::dmg]])`,
}

// unverifiedContextShapes feed index-scan and downward axis steps
// context sequences the streamed route cannot verify — out of order,
// duplicated, nested, attribute or atomic contexts — so its strict
// fallback and the strict route build the same segments and both meet
// the oracle. (Constructed contexts are in TestPipelineConstructedTrees,
// which compares serializations.)
var unverifiedContextShapes = []string{
	`(/descendant::w, /descendant::vline)/descendant::w`,
	`(/descendant::line[2], /descendant::line[1])/descendant::w`,
	`(/descendant::vline, /descendant::vline)/descendant-or-self::w`,
	`(/descendant::vline[last()], /descendant::vline[1])/descendant::w[1]`,
	`(/descendant::line, /descendant::vline)/descendant::w[last()]`,
	`/descendant::node()/descendant::w`,
	`//*/descendant-or-self::w[2]`,
	`/descendant::vline/descendant-or-self::node()/descendant::w[last()]`,
	`(/descendant::res/attribute::*, /descendant::vline)/descendant::w`,
	`(/descendant::vline, /descendant::res/attribute::*)/descendant-or-self::res`,
	`(/descendant::vline, /)/descendant::w`,
	`(1, /descendant::vline)/descendant::w`,
	`(/descendant::vline, "x")/descendant::w`,
	`(/descendant::vline, /descendant::line)/descendant::w[overlapping::dmg]`,
	`/descendant::node()/descendant::w[xancestor::dmg or overlapping::res]`,
	`(/descendant::line[2], /descendant::line[1])/descendant::w[string-length(string(.)) > 2][1]`,
	`(/descendant::line, /descendant::vline)/descendant::w('nope')`,
	`count((/descendant::vline, /descendant::w)/descendant-or-self::w)`,
	`exists((/descendant::line[2], /descendant::line[1])/descendant::dmg)`,
	`(/descendant::vline[2], /descendant::vline[1])/child::w`,
	`(/descendant::line, /descendant::vline)/child::node()`,
	`/descendant::node()/child::w[1]`,
	`(/descendant::vline, /descendant::line)/self::vline`,
}

// overlayStackShapes call analyze-string at least three times in one
// evaluation, so each call stacks an overlay on the previous one, and
// then read the newest overlay's leaves and the shared root's children:
// the boundary reads and root-child lists an overlay answers from its
// delta layout (core.AddHierarchy) before and after its leaf layer
// exists. Patterns include whole-word matches, whose boundaries
// coincide with the base's, and single letters, which split leaves.
var overlayStackShapes = []string{
	`let $a := analyze-string((//w)[1], "e") let $b := analyze-string((//w)[2], "a") let $c := analyze-string((//w)[3], "n")
return (count(/child::node()), count(/descendant::leaf()), for $l in $c/descendant::leaf() return string($l))`,
	`for $w in (//w)[position() <= 4] let $r := analyze-string($w, "[aeiou]")
return ($r/child::m/descendant::leaf(), count(/child::*), "|")`,
	`for $w in (//w)[position() <= 5] return count(analyze-string($w, "n")/descendant::m/xancestor::node())`,
	`(for $w in (//w)[position() <= 3] return analyze-string($w, string($w)), /child::node(), count(/descendant::leaf()))`,
	`for $w in (//w)[position() <= 3] let $r := analyze-string($w, "e") return ($r/descendant::leaf()[1]/following::leaf()[1], /child::*[last()])`,
	`for $w in (//w)[position() <= 4] let $r := analyze-string($w, "[^aeiou]+") return $r/child::m[1]/xancestor::*`,
	`let $a := analyze-string((//w)[2], "a") let $b := analyze-string(($a/child::node())[1], "a")
let $c := analyze-string((//w)[4], ".") return (count(/descendant::leaf()), $c/child::m[2]/preceding::leaf()[1], /child::node()[self::res])`,
	`for $w in (//w)[position() <= 3] return for $l in analyze-string($w, "g|n")/descendant::leaf() return count($l/ancestor::node())`,
	`for $w in (//w)[position() <= 6] return (analyze-string($w, "e")/child::m[overlapping::dmg or xancestor::line], "|")`,
	`(for $w in //w[position() <= 3] return analyze-string($w, "zq"), count(/child::node()), /descendant::leaf()[3])`,
}

// boundItemShapes are FLWORs, filters and quantifiers whose return
// clause or condition yields the bound variable itself — with and
// without order by, positional variables and nested loops — and
// comparisons and string functions over "." and "string(.)", for atomic
// as well as node context items. They pin that a for variable bound to
// a one-item subslice of its source, a strict-route frame reused across
// tuples, and operands read off the context without evaluation are
// invisible in results.
var boundItemShapes = []string{
	`for $x in //w return $x`,
	`for $x at $i in //w return $x`,
	`for $x at $i in //w return ($x, $i)`,
	`for $x in //w order by string($x) return $x`,
	`for $x at $i in //w order by string($x) descending return ($i, $x)`,
	`for $x in //w order by string-length(string($x)) return ($x, $x/child::node())`,
	`for $x in //w for $y in $x/child::node() return ($y, $x)`,
	`for $x at $i in //line for $y at $j in $x/xdescendant::w return ($i, $j, $y)`,
	`for $x in //line let $y := $x return $y`,
	`for $x in //line let $y := $x/xdescendant::w where count($y) > 1 return ($y, $x)`,
	`for $x in (1, 2, 3) return $x`,
	`for $x at $i in ("a", "b") return ($x, $i)`,
	`for $x in (3, 1, 2) order by $x return $x`,
	`for $x in //w return for $y in $x/descendant::leaf() return $y`,
	`for $x in //w where $x[overlapping::line] return $x`,
	`for $x in //w return if ($x[xancestor::dmg]) then $x else ()`,
	`for $leaf in //line[1]/descendant::leaf() return if ($leaf[ancestor::w and ancestor::dmg]) then $leaf else ()`,
	`for $x in //w return $x[1]`,
	`for $x in //w return $x[2]`,
	`for $x in //w return $x[last()]`,
	`for $x in //w return if ($x[position() = 1][xancestor::line]) then $x else "-"`,
	`for $x in //w let $n := $x/child::node() return ($n, $x)`,
	`for $x in //w return $x[string(.) = 'singallice']`,
	`for $x in (0, 1, "", "a") return if ($x[true()]) then "t" else "f"`,
	`for $x in (1, 2) return if ($x[. = 1]) then $x else ()`,
	`for $x in (1, 2, 3) return if ($x[2]) then "y" else "n"`,
	`for $x in //w return if ($x[nope]) then 1 else 0`,
	`some $x in //w satisfies $x[overlapping::dmg]`,
	`every $x in //w satisfies $x[xancestor::vline]`,
	`//w[matches(string(.), "n")]`,
	`//w[matches(., "^s")]`,
	`//w[string(.) = 'singallice']`,
	`//w[. = 'singallice']`,
	`//w[contains(string(.), "a")][starts-with(string(.), "s") or ends-with(., "e")]`,
	`for $w in //w return replace(string($w), "a", "A")`,
	`for $w in //w return tokenize(string($w), "a")`,
	`(1, 2, 3)[string(.) = "2"]`,
	`(1, 2, 3)[. = 2]`,
	`("10", "9")[string(.) < "9"]`,
	`(1, 10)[matches(string(.), "1")]`,
	`//w[string(.) is .]`,
	`//w[. is .]`,
	`//w[string() = 'singallice']`,
	`//w[string(.) eq 'singallice']`,
	`//w[string(.) = ('a', 'singallice')]`,
}

// TestSweepOverlayStacksAndBoundItems runs the overlay-stack shapes
// (compared by serialization: each evaluation builds its temporaries
// anew) and the bound-item shapes through the strict and stream routes
// against the reference interpreter.
func TestSweepOverlayStacksAndBoundItems(t *testing.T) {
	t.Parallel()
	docs := sweepDocs(t)
	for i, src := range overlayStackShapes {
		checkAgainstOracleBy(t, i, src, docs, sameSerialization)
	}
	for i, src := range boundItemShapes {
		checkAgainstOracle(t, len(overlayStackShapes)+i, src, docs)
	}
}
