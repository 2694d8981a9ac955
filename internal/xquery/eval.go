package xquery

import (
	"math"
	"strings"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// This file holds the evaluation helpers of the operators whose
// semantics do not depend on how their operands were produced:
// comparisons, arithmetic, node-set operators and constructors. The
// lowered operators (lower.go) call them, as does the reference
// interpreter of the package tests.

// evalCmp implements every comparison kind over two materialized
// operands (shared with the lowered comparison operator).
func evalCmp(c *context, op string, kind cmpKind, va, vb Seq) (Seq, error) {
	switch kind {
	case cmpNode:
		if len(va) == 0 || len(vb) == 0 {
			return Seq{}, nil
		}
		na, aok := va[0].(*dom.Node)
		nb, bok := vb[0].(*dom.Node)
		if len(va) > 1 || len(vb) > 1 || !aok || !bok {
			return nil, errf("XPTY0004", "operands of %q must be single nodes", op)
		}
		switch op {
		case "is":
			return singletonBool(na == nb), nil
		case "<<":
			return singletonBool(dom.Compare(na, nb) < 0), nil
		default:
			return singletonBool(dom.Compare(na, nb) > 0), nil
		}
	case cmpValue:
		if len(va) == 0 || len(vb) == 0 {
			return Seq{}, nil
		}
		if len(va) > 1 || len(vb) > 1 {
			return nil, errf("XPTY0004", "operands of %q must be single values", op)
		}
		cres, ok := c.compare(op, va[0], vb[0])
		if !ok {
			return seqFalse, nil
		}
		return singletonBool(applyCmp(op, cres)), nil
	}
	// General comparison: existential over both sequences.
	for _, ia := range va {
		for _, ib := range vb {
			cres, ok := c.compare(op, ia, ib)
			if ok && applyCmp(op, cres) {
				return seqTrue, nil
			}
		}
	}
	return seqFalse, nil
}

// compare is compareAtomic over the atomized items a and b. A node or
// string pair compares as strings, and a node's string value is never
// boxed into an item for it.
func (c *context) compare(op string, a, b Item) (int, bool) {
	sa, aok := c.stringAtom(a)
	sb, bok := c.stringAtom(b)
	if aok && bok {
		return compareStrings(op, sa, sb)
	}
	return compareAtomic(op, c.atomize(a), c.atomize(b))
}

// stringAtom is the string a node or string item atomizes to.
func (c *context) stringAtom(it Item) (string, bool) {
	switch v := it.(type) {
	case *dom.Node:
		return c.st.stringOf(v), true
	case string:
		return v, true
	}
	return "", false
}

// evalArith applies one arithmetic operator (shared with the lowered
// arithmetic operator).
func evalArith(op string, x, y float64) (float64, error) {
	switch op {
	case "+":
		return x + y, nil
	case "-":
		return x - y, nil
	case "*":
		return x * y, nil
	case "div":
		return x / y, nil
	case "idiv":
		if y == 0 {
			return 0, errf("FOAR0001", "integer division by zero")
		}
		return math.Trunc(x / y), nil
	case "mod":
		return math.Mod(x, y), nil
	}
	return 0, errf("XPST0003", "unknown arithmetic operator %q", op)
}

// evalUnion merges two node sequences in document order (shared with
// the lowered union operator).
func evalUnion(va, vb Seq) (Seq, error) {
	na, err := toNodes(va, "union")
	if err != nil {
		return nil, err
	}
	nb, err := toNodes(vb, "union")
	if err != nil {
		return nil, err
	}
	return nodesToSeq(core.SortDoc(append(na, nb...))), nil
}

// evalIntersect implements intersect/except (shared with the lowered
// operator).
func evalIntersect(va, vb Seq, except bool) (Seq, error) {
	op := "intersect"
	if except {
		op = "except"
	}
	na, err := toNodes(va, op)
	if err != nil {
		return nil, err
	}
	nb, err := toNodes(vb, op)
	if err != nil {
		return nil, err
	}
	inB := make(map[*dom.Node]bool, len(nb))
	for _, n := range nb {
		inB[n] = true
	}
	var out []*dom.Node
	for _, n := range na {
		if inB[n] != except {
			out = append(out, n)
		}
	}
	return nodesToSeq(core.SortDoc(out)), nil
}

// buildElement constructs a direct element: attribute value templates,
// then content items.
func buildElement(c *context, name string, attrs []pAttr, content []pnode) (Item, error) {
	el := dom.NewElement(name)
	for _, a := range attrs {
		var b strings.Builder
		for _, part := range a.parts {
			v, err := pEval(part, c)
			if err != nil {
				return nil, err
			}
			for i, it := range v {
				if i > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(stringItem(c, it))
			}
		}
		el.SetAttr(a.name, b.String())
	}
	for _, ce := range content {
		v, err := pEval(ce, c)
		if err != nil {
			return nil, err
		}
		appendContent(el, v)
	}
	return el, nil
}

// buildComputed constructs a computed element/attribute/text/comment
// node from an already-resolved name and content (shared with the
// lowered constructor operator).
func buildComputed(kind byte, name string, content Seq) (Item, error) {
	if (kind == 'e' || kind == 'a') && !validXMLName(name) {
		return nil, errf("XQDY0074", "computed constructor: invalid name %q", name)
	}
	switch kind {
	case 'e':
		el := dom.NewElement(name)
		appendContent(el, content)
		return el, nil
	case 'a':
		return &dom.Node{Kind: dom.Attribute, Name: name, Data: joinAtomics(content)}, nil
	case 't':
		return dom.NewText(joinAtomics(content)), nil
	}
	return &dom.Node{Kind: dom.Comment, Data: joinAtomics(content)}, nil
}

// resolveCtorName evaluates a computed constructor's name expression.
func resolveCtorName(c *context, name string, nameExpr pnode) (string, error) {
	if nameExpr == nil {
		return name, nil
	}
	v, err := pEval(nameExpr, c)
	if err != nil {
		return "", err
	}
	v = c.atomizeSeq(v)
	if len(v) != 1 {
		return "", errf("XPTY0004", "computed constructor name must be a single value")
	}
	return stringValue(v[0]), nil
}
