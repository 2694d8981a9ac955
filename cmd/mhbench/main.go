// Command mhbench regenerates the paper experiments: the qualitative
// reproductions of the paper's figures, example and queries (E1–E7,
// printed as paper-vs-measured) and the quantitative tables (P1–P5;
// bench_test.go holds the matching Go benchmarks).
//
// Usage:
//
//	mhbench            # run everything
//	mhbench -e q2      # one experiment: fig1 fig2 q1 q2 ex1 q3 q4 p1..p5
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
	"mhxquery/internal/fragment"
	"mhxquery/internal/store"
	"mhxquery/internal/xmlparse"
	"mhxquery/internal/xquery"
)

func main() {
	exp := flag.String("e", "all", "experiment id: fig1, fig2, q1, q2, ex1, q3, q4, p1..p6 or all")
	flag.Parse()
	if err := run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "mhbench:", err)
		os.Exit(1)
	}
}

var experiments = []struct {
	id   string
	name string
	fn   func() error
}{
	{"fig1", "E1  Figure 1: the four encodings", expFig1},
	{"fig2", "E2  Figure 2: the KyGODDAG", expFig2},
	{"q1", "E3  Query I.1: lines containing 'singallice'", expQ1},
	{"q2", "E4  Query I.2: lines with damaged words", expQ2},
	{"ex1", "E5  Example 1: analyze-string with a fragment pattern", expEx1},
	{"q3", "E6  Query II.1: substring highlighting", expQ3},
	{"q4", "E7  Query III.1: substring + restoration", expQ4},
	{"p1", "P1  KyGODDAG construction scaling", expP1},
	{"p2", "P2  extended axes: interval vs Definition-1-literal", expP2},
	{"p3", "P3  damaged words: KyGODDAG vs fragmentation vs milestones", expP3},
	{"p4", "P4  analyze-string overlay scaling", expP4},
	{"p5", "P5  parse throughput", expP5},
	{"p6", "P6  binary store: load vs reparse", expP6},
}

func run(exp string) error {
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.id {
			continue
		}
		ran = true
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.fn(); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

func checkQuery(label, src, paper string) error {
	d := corpus.MustBoethius()
	got, err := xquery.EvalString(d, src)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", label)
	fmt.Printf("  paper:    %s\n", paper)
	fmt.Printf("  measured: %s\n", got)
	verdict := "MATCH (byte-exact)"
	if got != paper {
		verdict = "DIFFERS (see internal/xquery/paper_test.go for the readings of the printed queries)"
	}
	fmt.Printf("  verdict:  %s\n", verdict)
	return nil
}

func expFig1() error {
	xml := corpus.BoethiusXML()
	for _, name := range corpus.BoethiusHierarchies() {
		root, err := xmlparse.Parse(xml[name], xmlparse.Options{})
		if err != nil {
			return err
		}
		elems, texts := 0, 0
		walkCount(root, &elems, &texts)
		fmt.Printf("  %-12s %3d elements, %2d text nodes, text %q...\n",
			name, elems, texts, root.TextContent()[:20])
		if root.TextContent() != corpus.BoethiusText {
			return fmt.Errorf("%s does not encode S", name)
		}
	}
	fmt.Printf("  all four encodings share S (%d bytes): alignment verified\n", len(corpus.BoethiusText))
	return nil
}

func expFig2() error {
	d := corpus.MustBoethius()
	s := d.Stats()
	fmt.Printf("  hierarchies=%d elements=%d texts=%d leaves=%d treeEdges=%d leafEdges=%d\n",
		s.Hierarchies, s.Elements, s.Texts, s.Leaves, s.TreeEdges, s.LeafEdges)
	fmt.Printf("  paper: Figure 2 shows the 4 DOM components united at <r> over a\n")
	fmt.Printf("  shared leaf layer; our partition has %d leaves:\n\n", s.Leaves)
	fmt.Print(indent(d.LeafTable(), "  "))
	return nil
}

func expQ1() error {
	return checkQuery("I.1: find lines containing the word 'singallice' (split across lines)",
		`for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`,
		"gesceaftum unawendendne sin gallice sibbe gecynde þa")
}

func expQ2() error {
	if err := checkQuery("I.2 (strict reading of the printed query)",
		`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
		"gesceaftum una<b>w</b>endendne sin<br/>gallice sibbe gecyn<b>de</b> <b>þa</b><br/>"); err != nil {
		return err
	}
	return checkQuery("I.2 (word-level reading — the output the paper prints)",
		`for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]) then <b>{$leaf}</b> else $leaf
 , <br/> )`,
		"gesceaftum <b>una</b><b>w</b><b>endendne</b> sin<br/>gallice sibbe <b>gecyn</b><b>de</b> <b>þa</b><br/>")
}

func expEx1() error {
	return checkQuery("Example 1: analyze-string(<w>unawendendne</w>, '.*un<a>a</a>we.*')",
		`for $w in /descendant::w[string(.) = 'unawendendne']
return serialize(analyze-string($w, ".*un<a>a</a>we.*"))`,
		`<res><m>un<a>a</a>we</m>ndendne</res>`)
}

func expQ3() error {
	return checkQuery("II.1: words containing 'unawe', match highlighted",
		`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`,
		"<b>unawe</b>ndendne<br/>")
}

func expQ4() error {
	if err := checkQuery("III.1 (match granularity — the output the paper prints)",
		`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`,
		"<i><b>unawe</b></i><b>ndendne</b><br/>"); err != nil {
		return err
	}
	return checkQuery("III.1 (leaf granularity — formal reading of the printed query)",
		`for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $leaf in $res/descendant::leaf()
  return
    if ($leaf/xancestor::m and $leaf/xancestor::res('restoration')) then <i><b>{$leaf}</b></i>
    else if ($leaf/xancestor::m) then <b>{$leaf}</b>
    else string($leaf)
  ,
  <br/>
)`,
		"<i><b>una</b></i><b>w</b><b>e</b>ndendne<br/>")
}

// measure runs fn repeatedly for at least 50ms and returns ns/op.
func measure(fn func()) time.Duration {
	fn() // warm up
	n := 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

func expP1() error {
	fmt.Printf("  %-12s %14s %12s %10s\n", "words", "build ns/op", "leaves", "elements")
	for _, words := range []int{100, 1000, 10000} {
		c := corpus.Generate(corpus.Params{Seed: 1, Words: words})
		var d *core.Document
		per := measure(func() {
			trees, err := c.Trees()
			if err != nil {
				panic(err)
			}
			d, err = core.Build(trees)
			if err != nil {
				panic(err)
			}
		})
		s := d.Stats()
		fmt.Printf("  %-12d %14d %12d %10d\n", words, per.Nanoseconds(), s.Leaves, s.Elements)
	}
	return nil
}

func expP2() error {
	c := corpus.Generate(corpus.Params{Seed: 2, Words: 500, DamageRate: 0.15})
	d, err := c.Document()
	if err != nil {
		return err
	}
	h := d.HierarchyByName("structure")
	var target = h.Nodes[len(h.Nodes)/2]
	fmt.Printf("  %-24s %14s %12s %14s %12s\n", "axis", "indexed ns/op", "scan ns/op", "literal ns/op", "idx speedup")
	for _, ax := range []core.Axis{core.AxisXAncestor, core.AxisXDescendant, core.AxisXFollowing, core.AxisOverlapping} {
		fast := measure(func() { d.Eval(ax, target) })
		scan := measure(func() { d.EvalScan(ax, target) })
		ref := measure(func() { d.EvalRef(ax, target) })
		fmt.Printf("  %-24s %14d %12d %14d %11.1fx\n", ax, fast.Nanoseconds(), scan.Nanoseconds(),
			ref.Nanoseconds(), float64(scan)/float64(fast))
	}
	return nil
}

func expP3() error {
	fmt.Printf("  %-8s %16s %16s %16s %18s\n", "words", "kygoddag ns/op", "fragment ns/op", "milestone ns/op", "fragment/kygoddag")
	for _, words := range []int{200, 1000, 5000} {
		c := corpus.Generate(corpus.Params{Seed: 3, Words: words, DamageRate: 0.12})
		d, err := c.Document()
		if err != nil {
			return err
		}
		want := len(c.Truth.DamagedWords)
		check := func(got []int) {
			if len(got) != want {
				panic(fmt.Sprintf("damaged = %d, want %d", len(got), want))
			}
		}
		native := measure(func() { check(fragment.NativeDamagedWordIndices(d, "w", "dmg")) })
		flat := fragment.Fragment(d)
		fragT := measure(func() {
			fragment.AnnotateOffsets(flat)
			l := fragment.ReassembleFragments(flat)
			check(fragment.DamagedWordIndices(l["w"], l["dmg"]))
		})
		ms, err := fragment.Milestone(d, "physical")
		if err != nil {
			return err
		}
		msT := measure(func() {
			fragment.AnnotateOffsets(ms)
			l := fragment.ReassembleMilestones(ms)
			check(fragment.DamagedWordIndices(l["w"], l["dmg"]))
		})
		fmt.Printf("  %-8d %16d %16d %16d %17.1fx\n", words,
			native.Nanoseconds(), fragT.Nanoseconds(), msT.Nanoseconds(),
			float64(fragT)/float64(native))
	}
	return nil
}

func expP4() error {
	fmt.Printf("  %-8s %20s\n", "words", "analyze-string ns/op")
	for _, words := range []int{100, 1000, 5000} {
		c := corpus.Generate(corpus.Params{Seed: 4, Words: words})
		d, err := c.Document()
		if err != nil {
			return err
		}
		q := xquery.MustCompile(`count(analyze-string(/descendant::vline[1], "e")/descendant::m)`)
		per := measure(func() {
			if _, err := q.Eval(d); err != nil {
				panic(err)
			}
		})
		fmt.Printf("  %-8d %20d\n", words, per.Nanoseconds())
	}
	return nil
}

func expP5() error {
	fmt.Printf("  %-8s %12s %12s\n", "words", "ns/op", "MB/s")
	for _, words := range []int{1000, 10000} {
		c := corpus.Generate(corpus.Params{Seed: 5, Words: words})
		xml := c.XML["structure"]
		per := measure(func() {
			if _, err := xmlparse.Parse(xml, xmlparse.Options{}); err != nil {
				panic(err)
			}
		})
		mbps := float64(len(xml)) / per.Seconds() / 1e6
		fmt.Printf("  %-8d %12d %12.1f\n", words, per.Nanoseconds(), mbps)
	}
	return nil
}

func expP6() error {
	c := corpus.Generate(corpus.Params{Seed: 6, Words: 2000})
	d, err := c.Document()
	if err != nil {
		return err
	}
	var img bytes.Buffer
	if err := store.Encode(&img, d); err != nil {
		return err
	}
	xmlSize := 0
	for _, x := range c.XML {
		xmlSize += len(x)
	}
	load := measure(func() {
		if _, err := store.Decode(bytes.NewReader(img.Bytes())); err != nil {
			panic(err)
		}
	})
	reparse := measure(func() {
		trees, err := c.Trees()
		if err != nil {
			panic(err)
		}
		if _, err := core.Build(trees); err != nil {
			panic(err)
		}
	})
	fmt.Printf("  image: %d bytes (XML encodings: %d bytes, %.1fx smaller)\n",
		img.Len(), xmlSize, float64(xmlSize)/float64(img.Len()))
	fmt.Printf("  load:    %d ns/op\n", load.Nanoseconds())
	fmt.Printf("  reparse: %d ns/op (%.2fx slower)\n", reparse.Nanoseconds(),
		float64(reparse)/float64(load))
	return nil
}

func indent(s, prefix string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += prefix + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func walkCount(n *dom.Node, elems, texts *int) {
	switch n.Kind {
	case dom.Element:
		*elems++
	case dom.Text:
		*texts++
	}
	for _, c := range n.Children {
		walkCount(c, elems, texts)
	}
}
