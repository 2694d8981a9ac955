package core

import (
	"fmt"
	"sort"
	"strings"

	"mhxquery/internal/dom"
)

// This file renders KyGODDAGs for inspection, reproducing the paper's
// Figure 2: a DOT graph (clusters per hierarchy, the shared leaf layer,
// text→leaf edges) and a textual leaf table.

// NodeLabels assigns Figure-2 style labels: element nodes are named
// name1, name2, … per element name in document order; text nodes t1, t2,
// … per hierarchy; leaves are numbered boxes.
func (d *Document) NodeLabels() map[*dom.Node]string {
	d.ensureLeaves()
	labels := make(map[*dom.Node]string)
	labels[d.Root] = d.Root.Name
	counts := map[string]int{}
	for _, h := range d.Hiers {
		tcount := 0
		for _, n := range h.Nodes {
			switch n.Kind {
			case dom.Element:
				counts[n.Name]++
				labels[n] = fmt.Sprintf("%s%d", n.Name, counts[n.Name])
			case dom.Text:
				tcount++
				labels[n] = fmt.Sprintf("%s.t%d", h.Name, tcount)
			}
		}
	}
	for _, l := range d.Leaves {
		labels[l] = fmt.Sprintf("%d", l.Ord+1)
	}
	return labels
}

// DOT renders the KyGODDAG as a Graphviz digraph.
func (d *Document) DOT() string {
	labels := d.NodeLabels()
	var b strings.Builder
	b.WriteString("digraph kygoddag {\n  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n")
	fmt.Fprintf(&b, "  root [label=%q shape=ellipse style=bold];\n", labels[d.Root])
	id := func(n *dom.Node) string {
		if n == d.Root {
			return "root"
		}
		if n.Kind == dom.Leaf {
			return fmt.Sprintf("leaf%d", n.Ord)
		}
		return fmt.Sprintf("h%dn%d", n.HierIndex, n.Ord)
	}
	for _, h := range d.Hiers {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", h.Index, h.Name)
		for _, n := range h.Nodes {
			shape := "ellipse"
			if n.Kind == dom.Text {
				shape = "plaintext"
			}
			fmt.Fprintf(&b, "    %s [label=%q shape=%s];\n", id(n), labels[n], shape)
		}
		b.WriteString("  }\n")
		for _, t := range h.Top {
			fmt.Fprintf(&b, "  root -> %s;\n", id(t))
		}
		for _, n := range h.Nodes {
			for _, c := range n.Children {
				fmt.Fprintf(&b, "  %s -> %s;\n", id(n), id(c))
			}
		}
	}
	b.WriteString("  { rank=same;")
	for _, l := range d.Leaves {
		fmt.Fprintf(&b, " %s;", id(l))
	}
	b.WriteString(" }\n")
	for i, l := range d.Leaves {
		fmt.Fprintf(&b, "  %s [label=%q shape=box];\n", id(l), fmt.Sprintf("%d:%s", l.Ord+1, l.Data))
		for _, p := range d.leafPar[i] {
			fmt.Fprintf(&b, "  %s -> %s [style=dashed];\n", id(p), id(l))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// LeafTable renders the leaf partition as text: one row per leaf with its
// span, content and the innermost covering element per hierarchy.
func (d *Document) LeafTable() string {
	labels := d.NodeLabels()
	var b strings.Builder
	fmt.Fprintf(&b, "leaf  span        text            ")
	for _, h := range d.Hiers {
		fmt.Fprintf(&b, "  %-12s", h.Name)
	}
	b.WriteString("\n")
	for _, l := range d.Leaves {
		fmt.Fprintf(&b, "%4d  [%3d,%3d)  %-16q", l.Ord+1, l.Start, l.End, l.Data)
		for _, h := range d.Hiers {
			inner := "-"
			for _, n := range h.Nodes {
				if n.Kind == dom.Element && n.Start <= l.Start && l.End <= n.End {
					inner = labels[n] // preorder scan: last hit is innermost
				}
			}
			fmt.Fprintf(&b, "  %-12s", inner)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Serialize re-serializes one hierarchy of the document back to XML,
// rebuilding a root element wrapper around the hierarchy's top nodes.
func (d *Document) Serialize(hier string) (string, error) {
	d.ensureLayout()
	h := d.hierNamed(hier)
	if h == nil {
		return "", fmt.Errorf("core: unknown hierarchy %q", hier)
	}
	var b strings.Builder
	b.WriteByte('<')
	b.WriteString(d.Root.Name)
	for _, a := range d.Root.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		b.WriteString(`="`)
		b.WriteString(dom.EscapeAttr(a.Data))
		b.WriteByte('"')
	}
	b.WriteByte('>')
	for _, t := range h.Top {
		b.WriteString(dom.XML(t))
	}
	b.WriteString("</")
	b.WriteString(d.Root.Name)
	b.WriteByte('>')
	return b.String(), nil
}

// BoundarySources explains, for diagnostics, which hierarchies contribute
// each boundary offset.
func (d *Document) BoundarySources() map[int][]string {
	d.ensureLayout()
	src := make(map[int][]string)
	add := func(off int, name string) {
		for _, s := range src[off] {
			if s == name {
				return
			}
		}
		src[off] = append(src[off], name)
	}
	for _, h := range d.Hiers {
		for _, n := range h.Nodes {
			add(n.Start, h.Name)
			add(n.End, h.Name)
		}
	}
	for off := range src {
		sort.Strings(src[off])
	}
	return src
}
