package xquery

import (
	"fmt"
	"strings"

	"mhxquery/internal/dom"
)

// This file implements Definition 4 of the paper: the extended internal
// function
//
//	fn:analyze-string($node as node(), $pattern as string) as node()
//
// which (1) creates a fresh temporary KyGODDAG hierarchy ("rest",
// "rest2", …), (2) wraps the content of $node in a <res> element of that
// hierarchy, (3) matches the regular expression against the content and
// tags each matching string with <m>, (4) when the pattern is an
// XML-fragment ("xxx<a>xxx</a>xxx"), converts each start/end tag pair to
// a regex group and tags each group match with the originating element
// name, nested as in the fragment, and (5) lets the temporary hierarchy
// live until the whole query evaluation finishes.
//
// Two semantic details follow the paper's worked Example 1:
//
//   - Redundant unanchored ".*" / ".*?" heads and tails are stripped
//     before matching, so analyze-string($w, ".*unawe.*") tags exactly
//     <m>unawe</m> (as printed in the paper), not the whole content.
//   - User parentheses in the pattern are converted to non-capturing
//     groups so that group numbering corresponds 1:1 to fragment tags.

// fragGroup is one capture group derived from a fragment tag.
type fragGroup struct {
	name   string
	parent int // index of the enclosing group, or -1 for top level
}

// translateFragmentPattern converts an XML-fragment pattern into regex
// source plus a group table: "<a>" → "(", "</a>" → ")" per Definition
// 4(4). A '<' not followed by a name character (or inside a character
// class or escape) is treated as a literal.
func translateFragmentPattern(pat string) (string, []fragGroup, error) {
	var b strings.Builder
	var groups []fragGroup
	var stack []int
	inClass := false
	i := 0
	for i < len(pat) {
		c := pat[i]
		switch {
		case c == '\\' && i+1 < len(pat):
			b.WriteString(pat[i : i+2])
			i += 2
		case inClass:
			if c == ']' {
				inClass = false
			}
			b.WriteByte(c)
			i++
		case c == '[':
			inClass = true
			b.WriteByte(c)
			i++
		case c == '<':
			if i+1 < len(pat) && pat[i+1] == '/' {
				j := strings.IndexByte(pat[i:], '>')
				if j < 0 {
					return "", nil, errf("MHXQ0002", "unterminated end tag in pattern %q", pat)
				}
				name := pat[i+2 : i+j]
				if len(stack) == 0 || groups[stack[len(stack)-1]].name != name {
					return "", nil, errf("MHXQ0002", "mismatched </%s> in pattern %q", name, pat)
				}
				stack = stack[:len(stack)-1]
				b.WriteByte(')')
				i += j + 1
				continue
			}
			if name, end, ok := scanXMLName(pat, i+1); ok && end < len(pat) && pat[end] == '>' {
				parent := -1
				if len(stack) > 0 {
					parent = stack[len(stack)-1]
				}
				groups = append(groups, fragGroup{name: name, parent: parent})
				stack = append(stack, len(groups)-1)
				b.WriteByte('(')
				i = end + 1
				continue
			}
			b.WriteString(`\<`)
			i++
		case c == '(':
			if i+1 < len(pat) && pat[i+1] == '?' {
				b.WriteByte(c)
				i++
				continue
			}
			// Neutralize user groups so fragment tags own the numbering.
			b.WriteString("(?:")
			i++
		default:
			b.WriteByte(c)
			i++
		}
	}
	if len(stack) != 0 {
		return "", nil, errf("MHXQ0002", "unclosed <%s> in pattern %q", groups[stack[len(stack)-1]].name, pat)
	}
	return b.String(), groups, nil
}

// stripOuterDotStar removes unanchored leading and trailing ".*"/".*?",
// matching the paper's Example 1 semantics.
func stripOuterDotStar(p string) string {
	orig := p
	for {
		switch {
		case strings.HasPrefix(p, ".*?"):
			p = p[3:]
		case strings.HasPrefix(p, ".*"):
			p = p[2:]
		default:
			goto tail
		}
	}
tail:
	for strings.HasSuffix(p, ".*") && !strings.HasSuffix(p, `\.*`) {
		p = p[:len(p)-2]
	}
	if p == "" {
		return orig
	}
	return p
}

func fnAnalyzeString(c *context, args []Seq) (Seq, error) {
	n, err := oneNode(args, 0)
	if err != nil {
		return nil, errf("MHXQ0003", "analyze-string: first argument must be a single node (%v)", err)
	}
	d := c.st.docFor(n)
	switch n.Kind {
	case dom.Element, dom.Text, dom.Leaf:
	default:
		return nil, errf("MHXQ0003", "analyze-string: cannot analyze a %s node", n.Kind)
	}
	if n != d.Root && (n.Hier == "" && n.Kind != dom.Leaf) {
		return nil, errf("MHXQ0003", "analyze-string: node is not part of the multihierarchical document")
	}
	if n.Start < 0 || n.End > len(d.Text) || n.Start > n.End {
		return nil, errf("MHXQ0003", "analyze-string: node has no valid span in the base text")
	}
	pat, err := oneString(c, args, 1)
	if err != nil {
		return nil, err
	}
	flags, err := oneString(c, args, 2)
	if err != nil {
		return nil, err
	}

	reSrc, groups, err := translateFragmentPattern(stripOuterDotStar(pat))
	if err != nil {
		return nil, err
	}
	re, err := compileRegex(reSrc, flags)
	if err != nil {
		return nil, err
	}

	content := d.Text[n.Start:n.End]
	base := n.Start

	res := dom.NewElement("res")
	res.Start, res.End = n.Start, n.End

	addText := func(parent *dom.Node, from, to int) {
		if from >= to {
			return
		}
		t := dom.NewText(content[from:to])
		t.Start, t.End = base+from, base+to
		parent.AppendChild(t)
	}

	// Children of each group index (-1 = directly under <m>).
	kids := map[int][]int{}
	for gi, g := range groups {
		kids[g.parent] = append(kids[g.parent], gi)
	}

	var assemble func(parent *dom.Node, from, to int, children []int, m []int)
	assemble = func(parent *dom.Node, from, to int, children []int, m []int) {
		cursor := from
		for _, gi := range children {
			s, e := m[2*(gi+1)], m[2*(gi+1)+1]
			if s < 0 || s == e {
				continue
			}
			addText(parent, cursor, s)
			g := dom.NewElement(groups[gi].name)
			g.Start, g.End = base+s, base+e
			parent.AppendChild(g)
			assemble(g, s, e, kids[gi], m)
			cursor = e
		}
		addText(parent, cursor, to)
	}

	cursor := 0
	for _, m := range re.FindAllStringSubmatchIndex(content, -1) {
		if m[0] == m[1] {
			continue // zero-width matches produce no markup
		}
		addText(res, cursor, m[0])
		mEl := dom.NewElement("m")
		mEl.Start, mEl.End = base+m[0], base+m[1]
		res.AppendChild(mEl)
		assemble(mEl, m[0], m[1], kids[-1], m)
		cursor = m[1]
	}
	addText(res, cursor, len(content))

	// Temporaries are named rest, rest2, rest3, …, skipping names the
	// document already registers (a user hierarchy may be called rest).
	var hname string
	for {
		c.st.tempSeq++
		hname = "rest"
		if c.st.tempSeq > 1 {
			hname = fmt.Sprintf("rest%d", c.st.tempSeq)
		}
		if d.HierarchyByName(hname) == nil {
			break
		}
	}
	nd, err := d.AddHierarchy(hname, res, true)
	if err != nil {
		return nil, err
	}
	if d == c.st.doc {
		c.st.doc = nd
	} else {
		// The analyzed node came from a doc()/collection() document:
		// advance that document's entry to its overlay so later steps on
		// its nodes (including the new temporaries) dispatch there, and
		// leave the active document alone.
		for i, e := range c.st.extra {
			if e == d {
				c.st.extra[i] = nd
				break
			}
		}
	}
	return singleton(res), nil
}
