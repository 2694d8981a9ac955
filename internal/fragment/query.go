package fragment

import (
	"sort"
	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file is the query side of the [6] comparison: answering the
// paper's Section 2 workloads over the flattened encodings. Both
// baselines must first reconstruct logical elements — following fragment
// chains or pairing milestone markers — and re-derive character
// intervals before any overlap question can be answered; the KyGODDAG
// answers the same questions with one axis scan.

// Logical is a reconstructed logical element of the original document:
// its name and its (contiguous) span of the base text.
type Logical struct {
	Name       string
	Start, End int
	// Fragments counts how many fragments/markers were joined.
	Fragments int
}

// AnnotateOffsets walks a flattened tree and assigns Start/End text
// offsets to every element (the flat encodings do not carry them).
func AnnotateOffsets(root *dom.Node) {
	pos := 0
	var walk func(n *dom.Node)
	walk = func(n *dom.Node) {
		n.Start = pos
		for _, c := range n.Children {
			switch c.Kind {
			case dom.Text:
				c.Start = pos
				pos += len(c.Data)
				c.End = pos
			case dom.Element:
				walk(c)
			}
		}
		n.End = pos
	}
	walk(root)
}

// ReassembleFragments reconstructs logical elements from a fragmented
// tree (as produced by Fragment): fragments are grouped by their id/next
// chains, unfragmented elements stand for themselves. AnnotateOffsets
// must have run. Results are keyed by element name, in document order.
func ReassembleFragments(root *dom.Node) map[string][]Logical {
	type chainPart struct {
		n    *dom.Node
		next string
	}
	byID := make(map[string]chainPart)
	var singles []*dom.Node
	var heads []*dom.Node
	dom.Walk(root, func(n *dom.Node) {
		if n.Kind != dom.Element || n == root {
			return
		}
		part, _ := n.Attr("part")
		switch part {
		case "":
			singles = append(singles, n)
		case "I":
			heads = append(heads, n)
			fallthrough
		default:
			id, _ := n.Attr("id")
			next, _ := n.Attr("next")
			byID[id] = chainPart{n: n, next: next}
		}
	})
	out := make(map[string][]Logical)
	for _, n := range singles {
		out[n.Name] = append(out[n.Name], Logical{Name: n.Name, Start: n.Start, End: n.End, Fragments: 1})
	}
	for _, h := range heads {
		l := Logical{Name: h.Name, Start: h.Start, End: h.End, Fragments: 1}
		id, _ := h.Attr("next")
		for id != "" {
			p, ok := byID[id]
			if !ok {
				break
			}
			l.Fragments++
			if p.n.End > l.End {
				l.End = p.n.End
			}
			id = p.next
		}
		out[h.Name] = append(out[h.Name], l)
	}
	for name := range out {
		ls := out[name]
		sort.Slice(ls, func(i, j int) bool { return ls[i].Start < ls[j].Start })
	}
	return out
}

// ReassembleMilestones reconstructs logical elements from a milestone
// tree (as produced by Milestone): real elements stand for themselves,
// <name-start id/>/<name-end ref/> pairs are joined by id. AnnotateOffsets
// must have run.
func ReassembleMilestones(root *dom.Node) map[string][]Logical {
	out := make(map[string][]Logical)
	type pending struct {
		name  string
		start int
	}
	open := make(map[string]pending)
	dom.Walk(root, func(n *dom.Node) {
		if n.Kind != dom.Element || n == root {
			return
		}
		switch {
		case strings.HasSuffix(n.Name, "-start"):
			id, _ := n.Attr("id")
			open[id] = pending{name: strings.TrimSuffix(n.Name, "-start"), start: n.Start}
		case strings.HasSuffix(n.Name, "-end"):
			ref, _ := n.Attr("ref")
			p, ok := open[ref]
			if !ok {
				return
			}
			out[p.name] = append(out[p.name], Logical{Name: p.name, Start: p.start, End: n.Start, Fragments: 2})
			delete(open, ref)
		default:
			out[n.Name] = append(out[n.Name], Logical{Name: n.Name, Start: n.Start, End: n.End, Fragments: 1})
		}
	})
	for name := range out {
		ls := out[name]
		sort.Slice(ls, func(i, j int) bool { return ls[i].Start < ls[j].Start })
	}
	return out
}

// DamagedWordIndices answers the paper's Query I.2 workload ("words that
// are totally or partially damaged") over reconstructed logical elements:
// it returns the indices (document order) of words whose span intersects
// any damage span.
func DamagedWordIndices(words, damages []Logical) []int {
	var out []int
	di := 0
	for i, w := range words {
		for di < len(damages) && damages[di].End <= w.Start {
			di++
		}
		for j := di; j < len(damages) && damages[j].Start < w.End; j++ {
			if damages[j].End > w.Start {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// NativeDamagedWordIndices answers the same workload with the KyGODDAG's
// extended axes, for the head-to-head benchmark. It evaluates the query
// the way the engine plans //w[xancestor::dmg or xdescendant::dmg or
// overlapping::dmg]: one structural semi-join sweep per axis
// (core.SemiJoin) over the words in document order against the <dmg>
// spans, O(words + damages), with a per-word axis call only for a word
// the sweep leaves undecided.
func NativeDamagedWordIndices(d *core.Document, wordTag, dmgTag string) []int {
	wordSym, dmgSym := d.NameSymOf(wordTag), d.NameSymOf(dmgTag)
	axes := [...]core.Axis{core.AxisXAncestor, core.AxisXDescendant, core.AxisOverlapping}
	var sjs [len(axes)]core.SemiJoin
	for k, a := range axes {
		sjs[k].Reset(d, a)
		for _, h := range d.Hiers {
			sjs[k].AddRun(h, h.NameRun(dmgSym))
		}
	}
	var out []int
	idx := 0
	for _, h := range d.Hiers {
		for _, ord := range h.NameRun(wordSym) {
			w := h.Nodes[ord]
			for k, a := range axes {
				found, ok := sjs[k].Exists(w)
				if !ok {
					found = hasNamed(d.Eval(a, w), dmgSym)
				}
				if found {
					out = append(out, idx)
					break
				}
			}
			idx++
		}
	}
	return out
}

// hasNamed reports whether nodes holds a hierarchy element named sym.
func hasNamed(nodes []*dom.Node, sym int32) bool {
	for _, m := range nodes {
		if m.Kind == dom.Element && m.NameSym == sym && m.HierIndex >= 0 {
			return true
		}
	}
	return false
}
