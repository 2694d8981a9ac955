package xquery

import (
	"math"
	"strings"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/xmlparse"
)

// probeDoc is a three-hierarchy document with what the paper corpora
// lack: attributes, empty-span elements in two hierarchies, and a leaf
// covered by no element of one hierarchy.
func probeDoc(t testing.TB) *core.Document {
	t.Helper()
	var trees []core.NamedTree
	for _, h := range []struct{ name, xml string }{
		{"verse", `<r><vline n="1"><w>ab</w><w>cd<pb/></w></vline><vline n="2"><w>ef</w>gh</vline></r>`},
		{"physical", `<r><line id="a">abc</line><line id="b">def<gap/></line><line>gh</line></r>`},
		{"damage", `<r>a<dmg>bcde</dmg>f<dmg kind="x">g</dmg>h</r>`},
	} {
		root, err := xmlparse.Parse(h.xml, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, core.NamedTree{Name: h.name, Root: root})
	}
	d, err := core.Build(trees)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// probeAxes is every axis, spelled as in queries.
var probeAxes = []string{
	"child", "descendant", "descendant-or-self", "self", "attribute",
	"parent", "ancestor", "ancestor-or-self",
	"following", "preceding", "following-sibling", "preceding-sibling",
	"xdescendant", "xancestor", "xfollowing", "xpreceding",
	"overlapping", "preceding-overlapping", "following-overlapping",
}

// probeTests are the node tests the sweep rotates through: names, kind
// tests, hierarchy qualifiers (one unknown) and filtered targets.
var probeTests = []string{
	"w", "dmg", "line", "*", "node()", "text()", "leaf()",
	"dmg('nope')", "dmg('damage')", "w('verse')", "r", "zzz", "zzz('nope')",
	"w[overlapping::dmg]", "*[string(.) = 'ab']", "line[xdescendant::w and not(overlapping::dmg)]",
}

// probeContextKinds are the context sequences the probes run on; fresh
// marks the kinds whose nodes each evaluation builds anew, whose results
// compare by serialization.
var probeContextKinds = []struct {
	name, src string
	fresh     bool
}{
	{"root", `(/)`, false},
	{"element", `/descendant::w`, false},
	{"text", `/descendant::text()`, false},
	{"leaf", `/descendant::leaf()`, false},
	{"attribute", `/descendant::node()/attribute::*`, false},
	{"empty-span", `/descendant::*[string-length(string(.)) = 0]`, false},
	{"overlay", `analyze-string((/descendant::w)[2], "[a-e]")/descendant-or-self::node()`, true},
	{"constructed", `(<a n="1"><w>x</w>y<dmg/></a>)/descendant-or-self::node()`, true},
	{"atomic", `(1, "x")`, false},
}

// probeVarBindings bind $v to zero, one and two nodes.
var probeVarBindings = []struct{ name, src string }{
	{"var0", `()`},
	{"var1", `(/descendant::w)[2]`},
	{"var2", `(/descendant::w)[position() <= 2]`},
}

// probePositions are the truth-value positions, as templates over the
// context sequence K and the probed step S: var-form positions bind
// each context to $c, the focus-form ones make it the context item.
var probePositions = []struct{ name, tpl string }{
	{"and", `for $c in K return ($c/S and true())`},
	{"or", `for $c in K return (false() or $c/S)`},
	{"if", `for $c in K return if ($c/S) then 1 else 0`},
	{"where", `for $c in K where $c/S return $c`},
	{"some", `some $c in K satisfies $c/S`},
	{"every", `every $c in K satisfies $c/S`},
	{"exists", `for $c in K return exists($c/S)`},
	{"empty", `for $c in K return empty($c/S)`},
	{"not", `for $c in K return not($c/S)`},
	{"boolean", `for $c in K return boolean($c/S)`},
	{"filter-pred", `(K)[S]`},
	{"step-pred", `(K)/self::node()[S]`},
	{"pred-if", `(K)[if (S) then true() else false()]`},
	{"pred-exists-or", `(K)[exists(S) or empty(S)][not(S)]`},
}

// probeVarPositions are the positions over a let-bound $v.
var probeVarPositions = []string{
	`let $v := V return ($v/S and true())`,
	`let $v := V return if ($v/S) then 1 else 0`,
	`let $v := V for $i in (1, 2) where $v/S return $i`,
	`let $v := V return some $i in (1, 2) satisfies $v/S`,
	`let $v := V return (exists($v/S), empty($v/S), not($v/S), boolean($v/S))`,
}

// TestSweepProbeShapes sweeps every axis through every truth-value
// position over every context kind — leaf, attribute, shared root,
// element, text, empty-span element, analyze-string overlay node,
// constructed node, atomic item, and a variable bound to 0, 1 or 2
// nodes — rotating the node test through names, kind tests, known and
// unknown hierarchy qualifiers and filtered targets (and running every
// test as a filter predicate over every context kind). Each query must
// match the oracle in results and error codes on both routes.
func TestSweepProbeShapes(t *testing.T) {
	t.Parallel()
	docs := sweepDocs(t)
	docs["probe"] = probeDoc(t)
	i := 0
	next := func() string {
		i++
		return probeTests[i%len(probeTests)]
	}
	for _, ax := range probeAxes {
		for _, ctx := range probeContextKinds {
			same := sameItems
			if ctx.fresh {
				same = sameSerialization
			}
			for _, pos := range probePositions {
				s := ax + "::" + next()
				src := strings.ReplaceAll(strings.ReplaceAll(pos.tpl, "K", ctx.src), "S", s)
				checkAgainstOracleBy(t, i, src, docs, same)
			}
			// Every test once, in the filter predicate over every context.
			for _, test := range probeTests {
				i++
				checkAgainstOracleBy(t, i, "("+ctx.src+")["+ax+"::"+test+"]", docs, same)
			}
		}
		for _, v := range probeVarBindings {
			for _, tpl := range probeVarPositions {
				s := ax + "::" + next()
				checkAgainstOracle(t, i, strings.ReplaceAll(strings.ReplaceAll(tpl, "V", v.src), "S", s), docs)
			}
		}
	}
}

// TestProbeLowering checks which truth-value shapes become existence
// probes and which stay paths.
func TestProbeLowering(t *testing.T) {
	d := corpus.MustBoethius()
	count := func(src string) int {
		n := 0
		var walk func(op *ExplainOp)
		walk = func(op *ExplainOp) {
			if op.Op == "exists-probe" {
				n++
			}
			for _, k := range op.Children {
				walk(k)
			}
		}
		walk(MustCompile(src).PlanFor(d).Describe())
		return n
	}
	cases := []struct {
		src  string
		want int
	}{
		{`for $leaf in //leaf() return if ($leaf[ancestor::w and ancestor::dmg]) then 1 else 0`, 2},
		{`for $w in //w where exists($w/overlapping::dmg) return $w`, 1},
		{`//w[parent::vline or xancestor::res('restoration')]`, 2},
		{`some $w in //w satisfies $w/following-sibling::w[string(.) = 'a']`, 1},
		{`//w[not(child::text())]`, 1},
		// The semi-join's per-node terms are probes without explain nodes.
		{`//w[overlapping::dmg]`, 0},
		// Not truth-value positions, or not one relative step.
		{`for $w in //w return $w/ancestor::*`, 0},
		{`count(//w/ancestor::vline)`, 0},
		{`//w[ancestor::vline/child::w]`, 0},
		{`//w[/descendant::dmg]`, 0},
		// Descendant name steps stay index scans; positional or
		// fallible target predicates need the whole axis.
		{`//vline[descendant::w]`, 0},
		{`//w[ancestor::*[1]]`, 0},
		{`//w[ancestor::*[position() = 1]]`, 0},
		{`//w[ancestor::*[number(.) > 1]]`, 0},
		{`//w[(ancestor::vline)[1]]`, 0},
	}
	for _, tc := range cases {
		if got := count(tc.src); got != tc.want {
			t.Errorf("%s: %d exists-probe operators, want %d", tc.src, got, tc.want)
		}
	}
}

// TestExplainProbeCounters checks that an exists-probe counts exactly
// one call per probe and one out row per probe that found a node,
// against counts taken by separate queries.
func TestExplainProbeCounters(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 80, DamageRate: 0.3, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	num := func(src string) int64 {
		v, err := MustCompile(src).Eval(d)
		if err != nil || len(v) != 1 {
			t.Fatalf("%s: %v %v", src, v, err)
		}
		return int64(v[0].(float64))
	}
	probes := func(src string) []*ExplainOp {
		_, op, err := MustCompile(src).ExplainAnalyze(d, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var out []*ExplainOp
		var walk func(op *ExplainOp)
		walk = func(op *ExplainOp) {
			if op.Op == "exists-probe" {
				out = append(out, op)
			}
			for _, k := range op.Children {
				walk(k)
			}
		}
		walk(op)
		return out
	}
	check := func(what string, op *ExplainOp, calls, out int64) {
		t.Helper()
		if op.Calls != calls || op.OutRows != out {
			t.Errorf("%s: calls/out_rows %d/%d, want %d/%d", what, op.Calls, op.OutRows, calls, out)
		}
		if op.Calls > 0 && op.Nanos <= 0 {
			t.Errorf("%s: no wall time under EXPLAIN ANALYZE", what)
		}
	}

	// The paper-read join: one probe per word of a verse line.
	join := probes(`for $v in /descendant::vline for $w in $v/child::w
		where exists($w/overlapping::dmg) return string($w)`)
	if len(join) != 1 {
		t.Fatalf("join: %d probes, want 1", len(join))
	}
	check("join", join[0], num(`count(/descendant::vline/child::w)`),
		num(`count(/descendant::vline/child::w[overlapping::dmg])`))

	// Query I.2's leaf condition: the and stops at the first false.
	leaf := probes(`for $leaf in /descendant::leaf() return
		if ($leaf[ancestor::w and ancestor::dmg]) then 1 else 0`)
	if len(leaf) != 2 {
		t.Fatalf("leaf condition: %d probes, want 2", len(leaf))
	}
	leaves, withW := num(`count(/descendant::leaf())`), num(`count(/descendant::leaf()[ancestor::w])`)
	check("ancestor::w", leaf[0], leaves, withW)
	check("ancestor::dmg", leaf[1], withW, num(`count(/descendant::leaf()[ancestor::w][ancestor::dmg])`))

	// A probe that delegates to its path (a variable bound to two
	// nodes) still counts once per call.
	two := probes(`let $v := (/descendant::w)[position() <= 2] for $i in (1, 2, 3) return exists($v/overlapping::dmg)`)
	if len(two) != 1 {
		t.Fatalf("two-node variable: %d probes, want 1", len(two))
	}
	found := int64(0)
	if num(`count((/descendant::w)[position() <= 2]/overlapping::dmg)`) > 0 {
		found = 3
	}
	check("two-node variable", two[0], 3, found)
}

// TestProbesAllocateNothing guards the per-node tests of the paper's
// queries: once an evaluation's scratch state exists, Query I.2's leaf
// condition (two leaf-ancestor probes under and) and the join's
// exists($w/overlapping::dmg) (a variable-rooted overlap probe)
// allocate nothing per evaluation.
func TestProbesAllocateNothing(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 60, DamageRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	d.Materialize()
	var leaf, word *dom.Node
	for _, l := range d.Leaves {
		if len(d.Eval(core.AxisAncestor, l)) > 2 {
			leaf = l
		}
	}
	for _, h := range d.Hiers {
		if run := h.NameRun(d.NameSymOf("w")); len(run) > 0 {
			word = h.Nodes[run[len(run)/2]]
		}
	}
	if leaf == nil || word == nil {
		t.Fatal("corpus lacks a covered leaf or a word")
	}
	cases := []struct {
		src  string
		item *dom.Node
		vars map[string]Seq
	}{
		{`ancestor::w and ancestor::dmg`, leaf, nil},
		{`exists($w/overlapping::dmg)`, nil, map[string]Seq{"w": {word}}},
	}
	for _, tc := range cases {
		pl := MustCompile(tc.src).PlanFor(d)
		st := &evalState{doc: d, plan: pl}
		c := &context{st: st, item: tc.item, pos: 1, size: 1}
		for name, v := range tc.vars {
			c = c.bind(name, v)
		}
		run := func() {
			if _, err := pl.prog.eval(c); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(100, run); got != 0 {
			t.Errorf("%s: %v allocs per evaluation, want 0", tc.src, got)
		}
	}
}

// TestForLoopAllocatesNothingPerTuple holds the strict for loop to no
// allocation per tuple: the variable binds a one-item subslice of the
// materialized source and the clause's frame and context are rebound,
// not allocated. The loops are a bare `for $x in $s return $x` and
// Query I.2's inner leaf loop without its constructed <b> output. Each
// evaluation may allocate a fixed amount plus the result slice's
// O(log n) growth, so going from 16 tuples to every leaf of a 200-word
// manuscript may add at most log2(leaves) allocations.
func TestForLoopAllocatesNothingPerTuple(t *testing.T) {
	d, err := corpus.Generate(corpus.Params{Seed: 5, Words: 200, DamageRate: 0.3}).Document()
	if err != nil {
		t.Fatal(err)
	}
	d.Materialize()
	leaves := nodesToSeq(d.Leaves)
	for _, src := range []string{
		`for $x in $s return $x`,
		`for $leaf in $s return if ($leaf[ancestor::w and ancestor::dmg]) then $leaf else ()`,
	} {
		pl := MustCompile(src).PlanFor(d)
		allocs := func(n int) float64 {
			st := &evalState{doc: d, plan: pl}
			c := (&context{st: st, item: d.Root, pos: 1, size: 1}).bind("s", leaves[:n])
			run := func() {
				if _, err := pl.prog.eval(c); err != nil {
					t.Fatal(err)
				}
			}
			run()
			return testing.AllocsPerRun(50, run)
		}
		few, all := allocs(16), allocs(len(leaves))
		if extra := all - few; extra > math.Log2(float64(len(leaves))) {
			t.Errorf("%s: %v allocs over 16 tuples, %v over %d: %v per extra tuple", src, few, all, len(leaves),
				extra/float64(len(leaves)-16))
		}
	}
}
