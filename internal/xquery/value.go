// Package xquery implements the paper's extended XQuery over
// multihierarchical (KyGODDAG) documents: a hand-written lexer and
// recursive-descent parser for an XQuery subset (FLWOR with order by,
// quantified and conditional expressions, direct element constructors,
// full path expressions), an evaluator whose path steps understand the
// extended axes and hierarchy-qualified node tests of Definitions 1–2,
// the stable node order of Definition 3, and the analyze-string function
// of Definition 4, which materializes regular-expression matches as a
// temporary markup hierarchy overlaid on the document for the remainder
// of the query.
package xquery

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mhxquery/internal/dom"
)

// Item is one member of an XQuery sequence: a *dom.Node, string, float64
// or bool.
type Item any

// Seq is an XQuery sequence (flat, possibly empty).
type Seq []Item

// singleton wraps one item.
func singleton(it Item) Seq { return Seq{it} }

// seqTrue and seqFalse are the shared boolean singletons. Sequences
// returned by expressions are never mutated by consumers (the same
// convention that lets varExpr return the bound sequence unchanged), so
// boolean-valued expressions can avoid a per-evaluation allocation.
var (
	seqTrue  = Seq{true}
	seqFalse = Seq{false}
)

// smallNumbers holds the numbers 0 … 255, each boxed once, as the items
// of one-item sequences (numberSeq).
var smallNumbers = func() Seq {
	s := make(Seq, 256)
	for i := range s {
		s[i] = float64(i)
	}
	return s
}()

// numberSeq returns the one-item sequence of the integer n ≥ 0, shared
// when n is small.
func numberSeq(n int) Seq {
	if n < len(smallNumbers) {
		return smallNumbers[n : n+1 : n+1]
	}
	return singleton(float64(n))
}

// singletonBool returns the shared singleton for b.
func singletonBool(b bool) Seq {
	if b {
		return seqTrue
	}
	return seqFalse
}

// reverseSeq reverses a sequence in place (the O(k) order restoration
// for reverse-axis step segments).
func reverseSeq(s Seq) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Error is an evaluation or compilation error with an error-code-like tag.
type Error struct {
	Code string // e.g. "XPTY0019"-style tag or descriptive code
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return "xquery: " + e.Code + ": " + e.Msg }

func errf(code, format string, args ...any) error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// atomize converts an item to its atomic value: nodes become their string
// value, atomics pass through.
func atomize(it Item) Item {
	if n, ok := it.(*dom.Node); ok {
		return n.TextContent()
	}
	return it
}

// stringValue renders an atomic or node item as a string per fn:string.
func stringValue(it Item) string {
	switch v := it.(type) {
	case nil:
		return ""
	case *dom.Node:
		return v.TextContent()
	case string:
		return v
	case bool:
		if v {
			return "true"
		}
		return "false"
	case float64:
		return formatNumber(v)
	}
	return fmt.Sprint(it)
}

// formatNumber renders a double the XPath way: integral values without a
// decimal point, NaN/Infinity spelled out.
func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// toNumber converts an item to a double per fn:number (NaN on failure).
func toNumber(it Item) float64 {
	switch v := atomize(it).(type) {
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	case string:
		return stringNumber(v)
	}
	return math.NaN()
}

// stringNumber is the number a string converts to, NaN if none.
func stringNumber(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// ebv computes the effective boolean value of a sequence.
func ebv(s Seq) (bool, error) {
	if len(s) == 0 {
		return false, nil
	}
	return ebvOf(s[0], len(s))
}

// ebvOf is the effective boolean value of a sequence of n items whose
// first is first.
func ebvOf(first Item, n int) (bool, error) {
	if n == 0 {
		return false, nil
	}
	if _, ok := first.(*dom.Node); ok {
		return true, nil
	}
	if n > 1 {
		return false, errf("FORG0006", "effective boolean value of a sequence of 2 or more atomic values")
	}
	switch v := first.(type) {
	case bool:
		return v, nil
	case string:
		return v != "", nil
	case float64:
		return v != 0 && !math.IsNaN(v), nil
	}
	return false, errf("FORG0006", "effective boolean value of %T", first)
}

// compareAtomic compares two atomic values with XPath-1.0-style coercion:
// numeric if either side is (or the operator is an ordering), boolean if
// either side is a boolean (for equality), string otherwise. It returns
// -1/0/+1 and ok=false for incomparable NaN cases.
func compareAtomic(op string, a, b Item) (int, bool) {
	ordering := isOrdering(op)
	if !ordering {
		if ab, ok := a.(bool); ok {
			bb := truthyAtom(b)
			return boolCmp(ab, bb), true
		}
		if bb, ok := b.(bool); ok {
			ab := truthyAtom(a)
			return boolCmp(ab, bb), true
		}
	}
	_, an := a.(float64)
	_, bn := b.(float64)
	if an || bn || ordering {
		return compareNumbers(toNumber(a), toNumber(b))
	}
	return strings.Compare(stringValue(a), stringValue(b)), true
}

// compareStrings is compareAtomic over two strings.
func compareStrings(op string, a, b string) (int, bool) {
	if isOrdering(op) {
		return compareNumbers(stringNumber(a), stringNumber(b))
	}
	return strings.Compare(a, b), true
}

func isOrdering(op string) bool {
	return op == "<" || op == "<=" || op == ">" || op == ">=" ||
		op == "lt" || op == "le" || op == "gt" || op == "ge"
}

// compareNumbers is compareAtomic over two numbers: NaN is incomparable.
func compareNumbers(x, y float64) (int, bool) {
	switch {
	case x < y:
		return -1, true
	case x > y:
		return 1, true
	case x == y:
		return 0, true
	}
	return 0, false
}

// compareForOrder compares two atomic values as "order by", min() and
// max() require: numerically when both are numbers, as strings otherwise
// (unlike the XPath-1.0 "<" operator, which coerces strings to numbers).
func compareForOrder(a, b Item) (int, bool) {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		if math.IsNaN(af) || math.IsNaN(bf) {
			return 0, false
		}
		switch {
		case af < bf:
			return -1, true
		case af > bf:
			return 1, true
		}
		return 0, true
	}
	return strings.Compare(stringValue(a), stringValue(b)), true
}

func truthyAtom(it Item) bool {
	switch v := it.(type) {
	case bool:
		return v
	case string:
		return v != ""
	case float64:
		return v != 0 && !math.IsNaN(v)
	}
	return false
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// applyCmp maps a comparison operator to a predicate over compareAtomic's
// result.
func applyCmp(op string, c int) bool {
	switch op {
	case "=", "eq":
		return c == 0
	case "!=", "ne":
		return c != 0
	case "<", "lt":
		return c < 0
	case "<=", "le":
		return c <= 0
	case ">", "gt":
		return c > 0
	case ">=", "ge":
		return c >= 0
	}
	return false
}

// Serialize renders a sequence the way the paper prints query results:
// nodes are serialized as XML (leaves and text nodes as escaped character
// data), atomic values as strings, with a single space inserted only
// between two adjacent atomic items.
func Serialize(s Seq) string {
	var b strings.Builder
	prevAtomic := false
	for _, it := range s {
		if n, ok := it.(*dom.Node); ok {
			b.WriteString(dom.XML(n))
			prevAtomic = false
			continue
		}
		if prevAtomic {
			b.WriteByte(' ')
		}
		b.WriteString(stringValue(it))
		prevAtomic = true
	}
	return b.String()
}

// SerializeText renders a sequence as plain text (no markup, no escaping);
// node items contribute their string value.
func SerializeText(s Seq) string {
	var b strings.Builder
	prevAtomic := false
	for _, it := range s {
		if n, ok := it.(*dom.Node); ok {
			b.WriteString(n.TextContent())
			prevAtomic = false
			continue
		}
		if prevAtomic {
			b.WriteByte(' ')
		}
		b.WriteString(stringValue(it))
		prevAtomic = true
	}
	return b.String()
}
