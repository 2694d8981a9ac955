// Benchmarks regenerating every figure/example of the paper plus the
// quantitative tables P1–P5 of EXPERIMENTS.md. Run:
//
//	go test -bench=. -benchmem
//
// Experiment index (EXPERIMENTS.md / DESIGN.md §5):
//
//	E1  BenchmarkFig1ParseEncodings      — parse the four Fig. 1 encodings
//	E2  BenchmarkFig2BuildKyGODDAG       — build the Fig. 2 KyGODDAG
//	E3  BenchmarkQueryI1                 — Query I.1 (split word, overlap)
//	E4  BenchmarkQueryI2                 — Query I.2 (damaged words)
//	E5  BenchmarkExample1AnalyzeString   — Definition 4, Example 1
//	E6  BenchmarkQueryII1                — Query II.1 (substring highlight)
//	E7  BenchmarkQueryIII1               — Query III.1 (match + restoration)
//	E8  BenchmarkOverlayQueries/*        — Queries II.1/III.1 at 10×/100× scale
//	E9  BenchmarkPaperRead/*             — the load benchmark's paper-read mix, per request
//	P1  BenchmarkBuildScaling/*          — KyGODDAG construction scaling
//	P2  BenchmarkAxes*/Reference         — interval vs Definition-1-literal axes
//	P3  BenchmarkDamagedWords*           — KyGODDAG vs fragmentation vs milestones
//	P4  BenchmarkAnalyzeStringScaling/*  — temp-hierarchy overlay cost
//	P5  BenchmarkParseThroughput/*       — document-centric parse throughput
//	P7  BenchmarkCollectionFanOut/*      — sequential vs parallel corpus fan-out
//	P8  BenchmarkCompileCache/*          — cold compile vs LRU cache hit
//	P9  BenchmarkPathPipeline/*          — order-aware path pipeline at 1/10/100× scale
//	P10 BenchmarkIndexedDescendant/*     — structural name index, //name steps at 1/10/100×
//	P14 BenchmarkPredicateScan/*         — full-drain predicate-filtered index scan at 1/10/100×
//	P17 BenchmarkQueryAfterUpdate/*      — Query I.1 after every update, through the plan cache
//	P18 BenchmarkRecovery/*              — Open replaying a 256-record log tail at 1/10/100×
//
// scripts/bench.sh runs the evaluator-level subset (E3–E7, P9, P10)
// with -count and emits BENCH_eval.json, the recorded perf trajectory.
package mhxquery_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"mhxquery"
	"mhxquery/internal/collection"
	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/fragment"
	"mhxquery/internal/store"
	"mhxquery/internal/xmlparse"
	"mhxquery/internal/xquery"
)

// ---- E1/E2: Figure 1 and Figure 2 -----------------------------------------

func BenchmarkFig1ParseEncodings(b *testing.B) {
	xml := corpus.BoethiusXML()
	names := corpus.BoethiusHierarchies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			if _, err := xmlparse.Parse(xml[name], xmlparse.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig2BuildKyGODDAG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trees, err := corpus.BoethiusTrees()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Build(trees); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E3–E7: the paper's queries -------------------------------------------

func benchQuery(b *testing.B, src, want string) {
	b.Helper()
	d := corpus.MustBoethius()
	q := xquery.MustCompile(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.Eval(d)
		if err != nil {
			b.Fatal(err)
		}
		if got := xquery.Serialize(res); got != want {
			b.Fatalf("got %q, want %q", got, want)
		}
	}
}

// queryI1Src is the paper's Query I.1: the lines containing the
// split word "singallice".
const queryI1Src = `for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`

func BenchmarkQueryI1(b *testing.B) {
	benchQuery(b, queryI1Src, "gesceaftum unawendendne sin gallice sibbe gecynde þa")
}

// queryI2Src is the paper's Query I.2: each line holding a damaged
// word, its leaves printed with the damaged word parts in bold.
const queryI2Src = `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`

func BenchmarkQueryI2(b *testing.B) {
	benchQuery(b, queryI2Src,
		"gesceaftum una<b>w</b>endendne sin<br/>gallice sibbe gecyn<b>de</b> <b>þa</b><br/>")
}

func BenchmarkExample1AnalyzeString(b *testing.B) {
	benchQuery(b, `for $w in /descendant::w[string(.) = 'unawendendne']
return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`,
		`<res><m>un<a>a</a>we</m>ndendne</res>`)
}

const queryII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`

const queryIII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`

func BenchmarkQueryII1(b *testing.B) {
	benchQuery(b, queryII1, "<b>unawe</b>ndendne<br/>")
}

func BenchmarkQueryIII1(b *testing.B) {
	benchQuery(b, queryIII1, "<i><b>unawe</b></i><b>ndendne</b><br/>")
}

// BenchmarkOverlayQueries runs Queries II.1 and III.1 over the generated
// four-hierarchy manuscript at 10× and 100× the Boethius scale, where
// one analyze-string overlay per matching word makes overlay
// construction the dominant cost (the 1× fixture has a single match).
func BenchmarkOverlayQueries(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 6, Words: scale.words, DamageRate: 0.12, RestoreRate: 0.2})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct{ name, src string }{{"II1", queryII1}, {"III1", queryIII1}} {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// paperReadQueries is the paper-read request mix of the repository
// load benchmark (bench/mhload): the paper's Queries I.1, I.2, II.1 and
// III.1, the damaged-word count, the overlapping-word strings, a nested
// FLWOR join and the cold query.
var paperReadQueries = []struct{ name, src string }{
	{"I1", queryI1Src},
	{"I2", queryI2Src},
	{"II1", queryII1},
	{"III1", queryIII1},
	{"damaged", `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`},
	{"overlapping", `for $w in //w[overlapping::line] return string($w)`},
	{"join", `for $v in /descendant::vline
for $w in $v/child::w
where exists($w/overlapping::dmg)
return string($w)`},
	{"cold", `count(//w[overlapping::line])`},
}

// paperReadCollection builds the load benchmark's corpus in memory: 16
// generated documents of 300 to 1200 words, each drawn from successive
// generator seeds until it holds words/50 occurrences of
// "unawendendne", so Queries II.1 and III.1 build the same number of
// analyze-string overlays as under the load benchmark.
func paperReadCollection(b *testing.B) (*mhxquery.Collection, []string) {
	b.Helper()
	coll := mhxquery.NewCollection(mhxquery.CollectionOptions{})
	var names []string
	for i := 0; i < 16; i++ {
		words := 300 + 60*i
		var g *corpus.Corpus
		for s := uint64(5000 + i); ; s += 16 {
			g = corpus.Generate(corpus.Params{Seed: s, Words: words, DamageRate: 0.12})
			n := 0
			for _, w := range g.Truth.WordSpans {
				if g.Text[w.Start:w.End] == "unawendendne" {
					n++
				}
			}
			if n == (words+25)/50 {
				break
			}
		}
		var hs []mhxquery.Hierarchy
		for _, h := range corpus.BoethiusHierarchies() {
			hs = append(hs, mhxquery.Hierarchy{Name: h, XML: g.XML[h]})
		}
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("doc%02d", i)
		if _, err := coll.Put(name, d); err != nil {
			b.Fatal(err)
		}
		names = append(names, name)
	}
	return coll, names
}

// BenchmarkPaperRead measures what one paper-read request of the load
// benchmark costs in process: Collection.Query plus serialization of
// the result, for each query of the mix over every document (one op is
// one pass over the 16 documents). B/req and allocs/req divide the
// pass's heap allocation by its 16 requests; "mix" runs all eight
// queries, so its B/req is the mean over the whole request mix.
func BenchmarkPaperRead(b *testing.B) {
	coll, names := paperReadCollection(b)
	defer coll.Close()
	run := func(b *testing.B, srcs []string) {
		for _, src := range srcs {
			for _, name := range names {
				if _, err := coll.Query(name, src); err != nil {
					b.Fatal(err) // warm the compile and plan caches
				}
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				for _, name := range names {
					res, err := coll.Query(name, src)
					if err != nil {
						b.Fatal(err)
					}
					_ = res.String()
				}
			}
		}
		runtime.ReadMemStats(&after)
		reqs := float64(b.N * len(srcs) * len(names))
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/reqs, "B/req")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reqs, "allocs/req")
	}
	var all []string
	for _, q := range paperReadQueries {
		all = append(all, q.src)
		b.Run(q.name, func(b *testing.B) { run(b, []string{q.src}) })
	}
	b.Run("mix", func(b *testing.B) { run(b, all) })
}

// ---- P1: construction scaling ----------------------------------------------

func BenchmarkBuildScaling(b *testing.B) {
	for _, words := range []int{100, 1000, 10000} {
		c := corpus.Generate(corpus.Params{Seed: 1, Words: words})
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trees, err := c.Trees()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Build(trees); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P2: axis evaluation, interval vs Definition-1-literal reference --------

func axisBenchDoc(b *testing.B, words int) *core.Document {
	b.Helper()
	c := corpus.Generate(corpus.Params{Seed: 2, Words: words, DamageRate: 0.15})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// impl selects one of the three extended-axis implementations: the
// indexed default, the O(N) interval scan, or the literal Definition 1
// set-based reference.
func benchAxis(b *testing.B, impl string, ax core.Axis, words int) {
	d := axisBenchDoc(b, words)
	h := d.HierarchyByName("structure")
	var targets []int
	for i, n := range h.Nodes {
		if n.Name == "w" {
			targets = append(targets, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := h.Nodes[targets[i%len(targets)]]
		switch impl {
		case "indexed":
			d.Eval(ax, n)
		case "scan":
			d.EvalScan(ax, n)
		default:
			d.EvalRef(ax, n)
		}
	}
}

func BenchmarkAxesOverlappingIndexed(b *testing.B) {
	benchAxis(b, "indexed", core.AxisOverlapping, 500)
}
func BenchmarkAxesOverlappingScan(b *testing.B)      { benchAxis(b, "scan", core.AxisOverlapping, 500) }
func BenchmarkAxesOverlappingReference(b *testing.B) { benchAxis(b, "ref", core.AxisOverlapping, 500) }
func BenchmarkAxesXAncestorIndexed(b *testing.B)     { benchAxis(b, "indexed", core.AxisXAncestor, 500) }
func BenchmarkAxesXAncestorScan(b *testing.B)        { benchAxis(b, "scan", core.AxisXAncestor, 500) }
func BenchmarkAxesXAncestorReference(b *testing.B)   { benchAxis(b, "ref", core.AxisXAncestor, 500) }
func BenchmarkAxesXDescendantIndexed(b *testing.B) {
	benchAxis(b, "indexed", core.AxisXDescendant, 500)
}
func BenchmarkAxesXDescendantScan(b *testing.B)   { benchAxis(b, "scan", core.AxisXDescendant, 500) }
func BenchmarkAxesXFollowingIndexed(b *testing.B) { benchAxis(b, "indexed", core.AxisXFollowing, 500) }
func BenchmarkAxesXFollowingScan(b *testing.B)    { benchAxis(b, "scan", core.AxisXFollowing, 500) }

// ---- P3: the [6] comparison — damaged words over three representations -------

func damagedWorkload(b *testing.B, words int) (*core.Document, *corpus.Corpus) {
	b.Helper()
	c := corpus.Generate(corpus.Params{Seed: 3, Words: words, DamageRate: 0.12})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	return d, c
}

func BenchmarkDamagedWordsKyGODDAG(b *testing.B) {
	for _, words := range []int{200, 1000, 5000} {
		d, c := damagedWorkload(b, words)
		want := len(c.Truth.DamagedWords)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got := fragment.NativeDamagedWordIndices(d, "w", "dmg")
				if len(got) != want {
					b.Fatalf("damaged = %d, want %d", len(got), want)
				}
			}
		})
	}
}

func BenchmarkDamagedWordsFragmentation(b *testing.B) {
	for _, words := range []int{200, 1000, 5000} {
		d, c := damagedWorkload(b, words)
		want := len(c.Truth.DamagedWords)
		// The baseline stores ONE flat document; query time includes
		// chain reassembly and interval re-derivation, as in [6].
		flat := fragment.Fragment(d)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fragment.AnnotateOffsets(flat)
				logical := fragment.ReassembleFragments(flat)
				got := fragment.DamagedWordIndices(logical["w"], logical["dmg"])
				if len(got) != want {
					b.Fatalf("damaged = %d, want %d", len(got), want)
				}
			}
		})
	}
}

func BenchmarkDamagedWordsMilestone(b *testing.B) {
	for _, words := range []int{200, 1000, 5000} {
		d, c := damagedWorkload(b, words)
		want := len(c.Truth.DamagedWords)
		flat, err := fragment.Milestone(d, "physical")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fragment.AnnotateOffsets(flat)
				logical := fragment.ReassembleMilestones(flat)
				got := fragment.DamagedWordIndices(logical["w"], logical["dmg"])
				if len(got) != want {
					b.Fatalf("damaged = %d, want %d", len(got), want)
				}
			}
		})
	}
}

// ---- P4: analyze-string overlay scaling --------------------------------------

func BenchmarkAnalyzeStringScaling(b *testing.B) {
	for _, words := range []int{100, 1000, 5000} {
		c := corpus.Generate(corpus.Params{Seed: 4, Words: words})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		q := xquery.MustCompile(`count(analyze-string(/descendant::vline[1], "e")/descendant::m)`)
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P5: parse throughput ------------------------------------------------------

func BenchmarkParseThroughput(b *testing.B) {
	for _, words := range []int{1000, 10000} {
		c := corpus.Generate(corpus.Params{Seed: 5, Words: words})
		xml := c.XML["structure"]
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			b.SetBytes(int64(len(xml)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xmlparse.Parse(xml, xmlparse.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- P9: order-aware path pipeline ------------------------------------------

// pathPipelineQueries are multi-step path workloads exercising the step
// evaluation pipeline: multi-context steps, extended axes inside
// predicates, full leaf scans and positional selection.
var pathPipelineQueries = []struct{ name, src string }{
	{"damaged", `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`},
	{"split", `count(/descendant::w[overlapping::line])`},
	{"leafscan", `count(/descendant::vline/child::w/descendant::leaf())`},
	{"firstword", `count(/descendant::vline/child::w[1])`},
}

// BenchmarkPathPipeline measures multi-step path evaluation over the
// four-hierarchy generated manuscript at 1×, 10× and 100× the scale of
// the paper's Boethius fixture (6 words).
func BenchmarkPathPipeline(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 9, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range pathPipelineQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P10: structural name index, //name-selective steps ----------------------

// indexedDescendantQueries are name-selective descendant workloads: the
// shapes the structural name index turns from full-GODDAG walks into
// O(matches) run scans.
var indexedDescendantQueries = []struct{ name, src string }{
	{"w", `count(/descendant::w)`},
	{"line", `count(/descendant::line)`},
	{"abbrev", `count(//w)`},
	{"subtree", `count(/descendant::vline/descendant::w)`},
}

// BenchmarkIndexedDescendant measures //name-leading path evaluation
// over the four-hierarchy generated manuscript at 1×, 10× and 100× the
// scale of the paper's Boethius fixture (6 words).
func BenchmarkIndexedDescendant(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 10, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range indexedDescendantQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P11: early exit and FLWOR joins through the cursor engine ---------------

// earlyExitQueries are the O(answer) workloads: the consumer needs one
// item (or one existence bit) out of a result the strict engine would
// materialize in full.
var earlyExitQueries = []struct{ name, src string }{
	{"firstw", `(//w)[1]`},
	{"existsw", `exists(//w)`},
	{"existsdmg", `exists(//dmg)`},
	{"firstpred", `(//w[ancestor::vline])[1]`},
	{"somequant", `some $w in //w satisfies $w/ancestor::vline`},
}

// BenchmarkEarlyExit measures early-exit query shapes at 1×, 10× and
// 100× the Boethius scale. Under cursor execution these stay O(answer):
// the 100× cost should track the 1× cost, not the document size.
func BenchmarkEarlyExit(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 11, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range earlyExitQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// flworJoinQueries exercise FLWOR binding pipelines: nested for clauses
// whose bindings stream from index scans, a where filter, and an
// order-by that forces tuple materialization.
var flworJoinQueries = []struct{ name, src string }{
	{"nested", `for $v in /descendant::vline
	            for $w in $v/child::w
	            where exists($w/overlapping::line)
	            return string($w)`},
	{"ordered", `for $w in //w
	             order by string-length(string($w)) descending
	             return string($w)`},
}

// BenchmarkFLWORJoin measures FLWOR evaluation through the lowered
// plan at 1×, 10× and 100× scale.
func BenchmarkFLWORJoin(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 12, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range flworJoinQueries {
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
	}
}

// ---- P12: copy-on-write updates vs whole-document reparse ---------------------

// BenchmarkUpdateSmallEdit measures a single-node edit — renaming one
// damage-span element, the canonical annotate-a-damage-report change —
// through the copy-on-write update engine at 1×, 10× and 100× the
// Boethius scale, against BenchmarkUpdateReparse: the reparse+reindex
// of the whole document that a store without in-place updates would
// pay for the same change. The edit copies only the touched hierarchy
// (structural sharing for the other three), patches its name index
// incrementally, and shares the boundary array and leaf structs
// (patching only the per-version text→leaf edge table), so its cost
// tracks the touched hierarchy, not the document: at 100× the edit
// must be ≥10× cheaper than the reparse. BenchmarkUpdateLargestHier
// is the worst-case counterpart: the same edit aimed at the largest
// hierarchy, whose node slab dominates the copy.
func BenchmarkUpdateSmallEdit(b *testing.B) {
	benchUpdateRename(b, "damage", "dmg")
}

// BenchmarkUpdateLargestHier renames one w element: the touched
// hierarchy (structure) holds roughly half the document's nodes, the
// upper bound of the copy-on-write cost for a single-node edit.
func BenchmarkUpdateLargestHier(b *testing.B) {
	benchUpdateRename(b, "structure", "w")
}

func benchUpdateRename(b *testing.B, hier, elem string) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		// Warm every name index: the benchmark measures the
		// incremental-maintenance path, not lazy first builds.
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		var target *dom.Node
		for _, n := range d.HierarchyByName(hier).Nodes {
			if n.Kind == dom.Element && n.Name == elem {
				target = n // last one: worst case for run patching
			}
		}
		if target == nil {
			b.Fatalf("no %s element in %s", elem, hier)
		}
		edits := []core.Edit{{Kind: core.EditRename, Target: target, Name: elem + "x"}}
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nd, _, err := d.Apply(edits)
				if err != nil {
					b.Fatal(err)
				}
				if nd.Rev != d.Rev+1 {
					b.Fatal("no new version")
				}
			}
		})
	}
}

// BenchmarkUpdateReparse is the from-scratch alternative to
// BenchmarkUpdateSmallEdit: re-parse all four encodings and rebuild
// the KyGODDAG (what Collection.Put of a re-encoded document costs).
func BenchmarkUpdateReparse(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				trees, err := c.Trees()
				if err != nil {
					b.Fatal(err)
				}
				d, err := core.Build(trees)
				if err != nil {
					b.Fatal(err)
				}
				// Reindex too: the read path depends on the name
				// indexes the edit would have preserved.
				for _, h := range d.Hiers {
					h.IndexRuns()
				}
			}
		})
	}
}

// BenchmarkUpdateExpression measures the full update-language path
// (compile + target evaluation + apply) for the same single-node edit.
func BenchmarkUpdateExpression(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range d.Hiers {
			h.IndexRuns()
		}
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				u, err := xquery.CompileUpdate(`rename node (//w)[1] as "wx"`)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := u.Apply(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUpdateDurable measures the end-to-end durable update path —
// compile + apply + log append + publish, fsync included — through the
// write-ahead log (small appended record, group commit, background
// snapshots) at 1×/10×/100× the Boethius scale. The log record stays a
// few dozen bytes whatever the document size.
func BenchmarkUpdateDurable(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		b.Run("WAL/"+scale.name, func(b *testing.B) {
			coll, err := collection.Open(b.TempDir(), collection.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer coll.Close()
			if _, err := coll.Put("bench", d); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Renaming to the same name keeps the document a fixed
				// point, so the target exists on every iteration while
				// each update still commits a new durable version.
				if _, _, err := coll.Update("bench", `rename node (//w)[1] as "w"`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryAfterUpdate measures a read that follows every write,
// the annotation workload's shape: each iteration commits one update
// that keeps the hierarchy layout (a rename to the same name) to a
// memory-only collection, then runs Query I.1 through Collection.Query
// at 1×/10×/100× the Boethius scale. Plans are keyed by layout, so the
// read reuses its cached plan on every new version instead of
// replanning.
func BenchmarkQueryAfterUpdate(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 13, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scale.name, func(b *testing.B) {
			coll := collection.New(collection.Options{})
			if _, err := coll.Put("bench", d); err != nil {
				b.Fatal(err)
			}
			res, err := coll.Query("bench", queryI1Src)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := coll.Update("bench", `rename node (//w)[1] as "w"`); err != nil {
					b.Fatal(err)
				}
				res, err := coll.Query("bench", queryI1Src)
				if err != nil {
					b.Fatal(err)
				}
				if got := xquery.Serialize(res); got != want {
					b.Fatalf("got %q, want %q", got, want)
				}
			}
		})
	}
}

// ---- P18: crash recovery -------------------------------------------------------

// recoveryTail draws n content-preserving updates of c's document — a
// same-length replacement of a word's text with itself, or a rename of
// a word, line or damage span to its own name — the log an annotation
// session leaves behind. Every update commits a new version, and the
// document's content stays the same however many of them apply.
func recoveryTail(c *corpus.Corpus, n int) []string {
	t := c.Truth
	srcs := make([]string, n)
	for i := range srcs {
		k := i * 7 // stride through the targets
		switch {
		case i%3 == 0:
			w := t.WordSpans[k%len(t.WordSpans)]
			srcs[i] = fmt.Sprintf(`replace value of node (//w)[%d]/text() with "%s"`, k%len(t.WordSpans)+1, c.Text[w.Start:w.End])
		case i%3 == 1:
			srcs[i] = fmt.Sprintf(`rename node (//w)[%d] as "w"`, k%len(t.WordSpans)+1)
		case i%6 == 2 && len(t.DamageSpans) > 0:
			srcs[i] = fmt.Sprintf(`rename node (//dmg)[%d] as "dmg"`, k%len(t.DamageSpans)+1)
		default:
			srcs[i] = fmt.Sprintf(`rename node (//line)[%d] as "line"`, k%len(t.LineSpans)+1)
		}
	}
	return srcs
}

// BenchmarkRecovery measures Open of a durable collection whose log
// holds a 256-record tail over one document (recoveryTail) at
// 1×/10×/100× the Boethius scale: load the snapshot, replay the tail
// onto one private working version, checkpoint the result and start a
// fresh log. replay-ns/op is RecoveryStats.ReplayElapsed alone.
func BenchmarkRecovery(b *testing.B) {
	const tail = 256
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 15, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scale.name, func(b *testing.B) {
			// One crashed-state directory: snapshots off, so the whole
			// tail stays in the log. Every iteration opens a fresh copy,
			// because Open checkpoints the log away.
			prep := b.TempDir()
			coll, err := collection.Open(prep, collection.Options{SnapshotEvery: -1, SnapshotBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := coll.Put("bench", d); err != nil {
				b.Fatal(err)
			}
			for _, src := range recoveryTail(c, tail) {
				if _, _, err := coll.Update("bench", src); err != nil {
					b.Fatal(err)
				}
			}
			if err := coll.Close(); err != nil {
				b.Fatal(err)
			}
			files := map[string][]byte{}
			ents, err := os.ReadDir(prep)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range ents {
				if files[e.Name()], err = os.ReadFile(filepath.Join(prep, e.Name())); err != nil {
					b.Fatal(err)
				}
			}
			dir := filepath.Join(b.TempDir(), "coll")
			var replay int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				if err := os.MkdirAll(dir, 0o755); err != nil {
					b.Fatal(err)
				}
				for name, data := range files {
					if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				coll, err := collection.Open(dir, collection.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				rec := coll.Recovery()
				if rec.Replayed != tail {
					b.Fatalf("replayed %d records, want %d", rec.Replayed, tail)
				}
				replay += int64(rec.ReplayElapsed)
				if err := coll.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(replay)/float64(b.N), "replay-ns/op")
		})
	}
}

// ---- P14: predicate-filtered index scan ------------------------------------

// predicateScanQuery is the damaged-word selection filter (three
// extended-axis probes per word), drained in full so the entire
// candidate stream of the fused index scan is filtered.
const predicateScanQuery = `//w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]`

// BenchmarkPredicateScan measures the full-drain predicate scan at 1×,
// 10× and 100× scale. Every query evaluates on the calling goroutine.
func BenchmarkPredicateScan(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 14, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		cq := xquery.MustCompile(predicateScanQuery)
		res, err := cq.Eval(d)
		if err != nil {
			b.Fatal(err)
		}
		want := xquery.Serialize(res)
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cq.Eval(d)
				if err != nil {
					b.Fatal(err)
				}
				if got := xquery.Serialize(res); got != want {
					b.Fatalf("got %q, want %q", got, want)
				}
			}
		})
	}
}

// leafPredicateQuery holds the per-node structural tests of the
// paper-read workload: Query I.2's leaf condition, asked once per leaf,
// and the verse-line join's where exists($w/overlapping::dmg), asked
// once per word. Each is an existence probe that stops at its first
// match.
const leafPredicateQuery = `(count(for $leaf in /descendant::leaf()
        return if ($leaf[ancestor::w and ancestor::dmg]) then 1 else ()),
 count(for $v in /descendant::vline
       for $w in $v/child::w
       where exists($w/overlapping::dmg)
       return $w))`

// BenchmarkLeafPredicate measures the per-node existence tests at 1×,
// 10× and 100× scale.
func BenchmarkLeafPredicate(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		c := corpus.Generate(corpus.Params{Seed: 14, Words: scale.words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		cq := xquery.MustCompile(leafPredicateQuery)
		res, err := cq.Eval(d)
		if err != nil {
			b.Fatal(err)
		}
		want := xquery.Serialize(res)
		b.Run(scale.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := cq.Eval(d)
				if err != nil {
					b.Fatal(err)
				}
				if got := xquery.Serialize(res); got != want {
					b.Fatalf("got %q, want %q", got, want)
				}
			}
		})
	}
}

// ---- public API end-to-end ----------------------------------------------------

func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	xml := corpus.BoethiusXML()
	var hs []mhxquery.Hierarchy
	for _, name := range corpus.BoethiusHierarchies() {
		hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			b.Fatal(err)
		}
		out, err := d.QueryString(`count(/descendant::w[overlapping::line])`)
		if err != nil || out != "1" {
			b.Fatalf("out=%q err=%v", out, err)
		}
	}
}

// ---- P6: binary store vs reparse --------------------------------------------

func BenchmarkStoreLoad(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	var img bytes.Buffer
	if err := store.Encode(&img, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Decode(bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreReparse(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	size := 0
	for _, x := range c.XML {
		size += len(x)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trees, err := c.Trees()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Build(trees); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- P7: collection fan-out, sequential vs parallel ---------------------------

// collectionFixture builds a corpus of nDocs generated documents.
func collectionFixture(b *testing.B, nDocs, workers int) *mhxquery.Collection {
	b.Helper()
	c := mhxquery.NewCollection(mhxquery.CollectionOptions{Workers: workers})
	for i := 0; i < nDocs; i++ {
		g := corpus.Generate(corpus.Params{Seed: uint64(i + 1), Words: 400, DamageRate: 0.12})
		names := make([]string, 0, len(g.XML))
		for name := range g.XML {
			names = append(names, name)
		}
		sort.Strings(names)
		hs := make([]mhxquery.Hierarchy, len(names))
		for j, name := range names {
			hs[j] = mhxquery.Hierarchy{Name: name, XML: g.XML[name]}
		}
		d, err := mhxquery.Parse(hs...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Put(fmt.Sprintf("doc%02d", i), d); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

// fanOutQuery is Query I.2's damaged-word selection, a representative
// multihierarchical workload (tree + extended axes per word).
const fanOutQuery = `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`

// BenchmarkCollectionFanOut compares sequential evaluation against the
// bounded worker pool. The speedup tracks the machine's core count: on
// a single-core host the two modes coincide (the pool adds only
// scheduling overhead), on an N-core host the parallel mode approaches
// min(N, docs, workers)×.
func BenchmarkCollectionFanOut(b *testing.B) {
	for _, nDocs := range []int{1, 4, 16} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"sequential", 1}, {"parallel", 4}} {
			b.Run(fmt.Sprintf("docs=%d/%s", nDocs, mode.name), func(b *testing.B) {
				c := collectionFixture(b, nDocs, mode.workers)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					results, err := c.QueryAll(fanOutQuery)
					if err != nil {
						b.Fatal(err)
					}
					if len(results) != nDocs {
						b.Fatalf("got %d results, want %d", len(results), nDocs)
					}
					for _, r := range results {
						if r.Err != nil {
							b.Fatal(r.Err)
						}
					}
				}
			})
		}
	}
}

// ---- P8: compiled-query cache, cold compile vs LRU hit ------------------------

func BenchmarkCompileCache(b *testing.B) {
	src := `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xquery.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := collection.New(collection.Options{})
		if _, err := c.Compile(src); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkStoreEncode(b *testing.B) {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var img bytes.Buffer
		if err := store.Encode(&img, d); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- P15: cold open — v3 slab open from bytes and from a file ----------------

// openColdFixture encodes the scaled generated manuscript, writes the
// image to disk for the file leg, and returns the source document too.
func openColdFixture(b *testing.B, words int) (d *core.Document, img []byte, path string) {
	b.Helper()
	d, err := corpus.Generate(corpus.Params{Seed: 14, Words: words, DamageRate: 0.12}).Document()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.EncodeSnapshot(&buf, d, 1); err != nil {
		b.Fatal(err)
	}
	path = filepath.Join(b.TempDir(), "doc.mhxg")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	return d, buf.Bytes(), path
}

// BenchmarkOpenCold measures snapshot open latency at 1×/10×/100× the
// Boethius fixture: the slab open validates checksums, installs the
// eager layers and materializes nothing — from a byte slice already in
// memory, and from the file (read into memory first, the path a
// collection takes on open).
func BenchmarkOpenCold(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"10x", 60}, {"100x", 600}} {
		_, img, path := openColdFixture(b, scale.words)
		b.Run(scale.name+"/v3bytes", func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := store.OpenSnapshotBytes(img); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(scale.name+"/v3file", func(b *testing.B) {
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := os.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := store.OpenSnapshotBytes(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpenFirstQuery measures time-to-first-answer: open the
// snapshot and run one indexed count. The slab pays lazy
// materialization on the first query, so this shows what the cold
// open costs by the first real use.
func BenchmarkOpenFirstQuery(b *testing.B) {
	cq := xquery.MustCompile(`count(//w)`)
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 6}, {"100x", 600}} {
		d, img, _ := openColdFixture(b, scale.words)
		res, err := cq.Eval(d)
		if err != nil {
			b.Fatal(err)
		}
		want := xquery.Serialize(res)
		b.Run(scale.name+"/v3slab", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, _, err := store.OpenSnapshotBytes(img)
				if err != nil {
					b.Fatal(err)
				}
				res, err := cq.Eval(d)
				if err != nil {
					b.Fatal(err)
				}
				if got := xquery.Serialize(res); got != want {
					b.Fatalf("got %q, want %q", got, want)
				}
			}
		})
	}
}

// ---- P16: cost-based plan choice ----------------------------------------------

// BenchmarkPlanChoice measures the query shapes the synopsis-driven
// cost model steers — selectivity-ordered predicates, size-ordered
// FLWOR/quantifier bindings — at 1/10/100× scale, plus the cold
// compile+plan path itself (parse, lowering, synopsis-based estimation)
// so planning overhead stays on the recorded perf trajectory.
func BenchmarkPlanChoice(b *testing.B) {
	for _, scale := range []struct {
		name  string
		words int
	}{{"1x", 20}, {"10x", 200}, {"100x", 2000}} {
		c := corpus.Generate(corpus.Params{Seed: 17, Words: scale.words, DamageRate: 0.25, RestoreRate: 0.25})
		d, err := c.Document()
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []struct {
			name, src string
			maxWords  int // 0 = every scale; the quantifier product is
			// O(words²) with no early exit, so it stops at 10×
		}{
			{"predorder", `count(/descendant::w[descendant::zzz][child::node()])`, 0},
			{"flwororder", `count(for $a in /descendant::w for $b in /descendant::dmg return 1)`, 0},
			{"quantorder", `some $a in /descendant::w, $b in /descendant::line satisfies exists(child::zzz)`, 200},
		} {
			if q.maxWords != 0 && scale.words > q.maxWords {
				continue
			}
			cq := xquery.MustCompile(q.src)
			res, err := cq.Eval(d)
			if err != nil {
				b.Fatal(err)
			}
			want := xquery.Serialize(res)
			b.Run(scale.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Eval(d)
					if err != nil {
						b.Fatal(err)
					}
					if got := xquery.Serialize(res); got != want {
						b.Fatalf("got %q, want %q", got, want)
					}
				}
			})
		}
		b.Run(scale.name+"/plancold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := xquery.MustCompile(`/descendant::vline/child::w[descendant::text()][descendant::zzz]`)
				if q.PlanFor(d) == nil {
					b.Fatal("no plan")
				}
			}
		})
	}
}
