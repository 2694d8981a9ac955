package xquery

import (
	"math"
	"regexp"
	"strings"
	"sync"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// builtin is an internal (built-in) function. The paper treats all
// functions as internal and drops the fn: namespace; we accept both
// spellings.
type builtin struct {
	name     string
	min, max int // max = -1: variadic
	fn       func(c *context, args []Seq) (Seq, error)
	// strArgs marks builtins that read every argument through
	// oneString and never return an argument sequence, so a node may
	// stand for its string value and argument storage is reused after
	// the call (pCall.eval).
	strArgs bool
}

var builtins = map[string]*builtin{}

func register(name string, min, max int, fn func(*context, []Seq) (Seq, error)) {
	builtins[name] = &builtin{name: name, min: min, max: max, fn: fn}
}

// registerExt registers an extension function under both its bare name
// and the mh: prefix.
func registerExt(name string, min, max int, fn func(*context, []Seq) (Seq, error)) {
	register(name, min, max, fn)
	builtins["mh:"+name] = builtins[name]
}

// ---- argument helpers -----------------------------------------------------

// argOrContext returns argument i, or the context item when the argument
// is absent (the fn:string() zero-argument pattern).
func argOrContext(c *context, args []Seq, i int) (Seq, error) {
	if i < len(args) {
		return args[i], nil
	}
	if c.item == nil {
		return nil, errf("XPDY0002", "context item is undefined")
	}
	return singleton(c.item), nil
}

// oneString extracts argument i as a string; the empty sequence yields "".
func oneString(c *context, args []Seq, i int) (string, error) {
	if i >= len(args) || len(args[i]) == 0 {
		return "", nil
	}
	if len(args[i]) > 1 {
		return "", errf("XPTY0004", "expected a single value, got a sequence of %d", len(args[i]))
	}
	return stringItem(c, args[i][0]), nil
}

// oneNode extracts argument i as a single node.
func oneNode(args []Seq, i int) (*dom.Node, error) {
	if i >= len(args) || len(args[i]) != 1 {
		return nil, errf("XPTY0004", "expected a single node argument")
	}
	n, ok := args[i][0].(*dom.Node)
	if !ok {
		return nil, errf("XPTY0004", "expected a node argument, got %T", args[i][0])
	}
	return n, nil
}

// ---- regex compilation with a small cache ----------------------------------

// maxCachedRegexps bounds the process-wide regex cache. Ad-hoc queries
// can send any number of distinct patterns, so the table is cleared when
// full, as planCache is at maxCachedPlans: the working set of a steady
// workload is small and refills after one recompile per pattern.
const maxCachedRegexps = 256

var (
	reMu    sync.Mutex
	reCache = map[string]*regexp.Regexp{}
)

// compileRegex compiles an XPath-style regular expression with optional
// flags (i, s, m; x is not supported). XPath regex syntax is close enough
// to RE2 for the constructs the paper uses; differences (backreferences,
// lazy semantics nuances) are documented in README.
func compileRegex(pattern, flags string) (*regexp.Regexp, error) {
	prefix := ""
	for _, f := range flags {
		switch f {
		case 'i':
			prefix += "i"
		case 's':
			prefix += "s"
		case 'm':
			prefix += "m"
		default:
			return nil, errf("FORX0001", "unsupported regex flag %q", string(f))
		}
	}
	src := pattern
	if prefix != "" {
		src = "(?" + prefix + ")" + pattern
	}
	reMu.Lock()
	re, ok := reCache[src]
	reMu.Unlock()
	if ok {
		return re, nil
	}
	re, err := regexp.Compile(src)
	if err != nil {
		return nil, errf("FORX0002", "invalid regular expression %q: %v", pattern, err)
	}
	reMu.Lock()
	if len(reCache) >= maxCachedRegexps {
		clear(reCache)
	}
	reCache[src] = re
	reMu.Unlock()
	return re, nil
}

// ---- registration -----------------------------------------------------------

func init() {
	registerStringFuncs()
	registerSequenceFuncs()
	registerNumericFuncs()
	registerNodeFuncs()
	registerDocFuncs()
	register("analyze-string", 2, 3, fnAnalyzeString)
}

// contextDoc returns the document of the context item, so the 0-arg
// doc-scoped extensions (hierarchies, base-text) answer for the
// document the evaluation is currently inside — which differs from the
// active document inside a doc()/collection() subtree.
func contextDoc(c *context) *core.Document {
	if n, ok := c.item.(*dom.Node); ok {
		return c.st.docFor(n)
	}
	return c.st.doc
}

// registerDocFuncs wires the multi-document input functions. Both
// require a Resolver (supplied by Query.EvalWithResolver, normally a
// collection.Collection); without one they raise the standard
// FODC0002/FODC0004 errors.
func registerDocFuncs() {
	register("doc", 1, 1, func(c *context, args []Seq) (Seq, error) {
		name, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		if c.st.resolver == nil {
			return nil, errf("FODC0002", "doc(%q): no document resolver in this evaluation context", name)
		}
		d, err := c.st.resolver.ResolveDoc(name)
		if err != nil {
			return nil, errf("FODC0002", "doc(%q): %v", name, err)
		}
		c.st.addExtra(d)
		return singleton(d.Root), nil
	})
	register("collection", 0, 1, func(c *context, args []Seq) (Seq, error) {
		pattern, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		if c.st.resolver == nil {
			return nil, errf("FODC0004", "collection(): no document resolver in this evaluation context")
		}
		docs, err := c.st.resolver.ResolveCollection(pattern)
		if err != nil {
			return nil, errf("FODC0004", "collection(%q): %v", pattern, err)
		}
		var out Seq
		for _, d := range docs {
			c.st.addExtra(d)
			out = append(out, d.Root)
		}
		return out, nil
	})
}

func registerStringFuncs() {
	register("string", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return singleton(""), nil
		}
		if len(v) > 1 {
			return nil, errf("XPTY0004", "string() of a sequence of %d items", len(v))
		}
		return singleton(stringItem(c, v[0])), nil
	})
	register("string-length", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		s := ""
		if len(v) > 0 {
			s = stringItem(c, v[0])
		}
		return singleton(float64(len([]rune(s)))), nil
	})
	register("normalize-space", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		s := ""
		if len(v) > 0 {
			s = stringItem(c, v[0])
		}
		return singleton(strings.Join(strings.Fields(s), " ")), nil
	})
	register("concat", 2, -1, func(c *context, args []Seq) (Seq, error) {
		var b strings.Builder
		for i := range args {
			s, err := oneString(c, args, i)
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return singleton(b.String()), nil
	})
	register("string-join", 1, 2, func(c *context, args []Seq) (Seq, error) {
		sep := ""
		if len(args) == 2 {
			s, err := oneString(c, args, 1)
			if err != nil {
				return nil, err
			}
			sep = s
		}
		parts := make([]string, len(args[0]))
		for i, it := range args[0] {
			parts[i] = stringItem(c, it)
		}
		return singleton(strings.Join(parts, sep)), nil
	})
	register("upper-case", 1, 1, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		return singleton(strings.ToUpper(s)), nil
	})
	register("lower-case", 1, 1, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		return singleton(strings.ToLower(s)), nil
	})
	register("translate", 3, 3, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		from, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		to, err := oneString(c, args, 2)
		if err != nil {
			return nil, err
		}
		fromR, toR := []rune(from), []rune(to)
		repl := make(map[rune]rune, len(fromR))
		drop := make(map[rune]bool)
		for i, r := range fromR {
			if _, seen := repl[r]; seen || drop[r] {
				continue
			}
			if i < len(toR) {
				repl[r] = toR[i]
			} else {
				drop[r] = true
			}
		}
		var b strings.Builder
		for _, r := range s {
			if drop[r] {
				continue
			}
			if rr, ok := repl[r]; ok {
				b.WriteRune(rr)
				continue
			}
			b.WriteRune(r)
		}
		return singleton(b.String()), nil
	})
	register("contains", 2, 2, strPredicate(strings.Contains))
	register("starts-with", 2, 2, strPredicate(strings.HasPrefix))
	register("ends-with", 2, 2, strPredicate(strings.HasSuffix))
	register("substring", 2, 3, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		start, _, err := argNumber(args, 1)
		if err != nil {
			return nil, err
		}
		start = math.Round(start)
		end := float64(len(runes)) + 1
		if len(args) == 3 {
			length, _, err := argNumber(args, 2)
			if err != nil {
				return nil, err
			}
			end = start + math.Round(length)
		}
		var b strings.Builder
		for i, r := range runes {
			p := float64(i + 1)
			if p >= start && p < end {
				b.WriteRune(r)
			}
		}
		return singleton(b.String()), nil
	})
	register("substring-before", 2, 2, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		t, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		if i := strings.Index(s, t); i >= 0 {
			return singleton(s[:i]), nil
		}
		return singleton(""), nil
	})
	register("substring-after", 2, 2, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		t, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		if i := strings.Index(s, t); i >= 0 {
			return singleton(s[i+len(t):]), nil
		}
		return singleton(""), nil
	})
	register("matches", 2, 3, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		pat, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		flags, err := oneString(c, args, 2)
		if err != nil {
			return nil, err
		}
		re, err := compileRegex(pat, flags)
		if err != nil {
			return nil, err
		}
		return singletonBool(re.MatchString(s)), nil
	})
	register("replace", 3, 4, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		pat, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		repl, err := oneString(c, args, 2)
		if err != nil {
			return nil, err
		}
		flags, err := oneString(c, args, 3)
		if err != nil {
			return nil, err
		}
		re, err := compileRegex(pat, flags)
		if err != nil {
			return nil, err
		}
		return singleton(re.ReplaceAllString(s, repl)), nil
	})
	register("tokenize", 2, 3, func(c *context, args []Seq) (Seq, error) {
		s, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		pat, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		flags, err := oneString(c, args, 2)
		if err != nil {
			return nil, err
		}
		re, err := compileRegex(pat, flags)
		if err != nil {
			return nil, err
		}
		var out Seq
		for _, tok := range re.Split(s, -1) {
			out = append(out, tok)
		}
		return out, nil
	})
}

func strPredicate(pred func(string, string) bool) func(*context, []Seq) (Seq, error) {
	return func(c *context, args []Seq) (Seq, error) {
		a, err := oneString(c, args, 0)
		if err != nil {
			return nil, err
		}
		b, err := oneString(c, args, 1)
		if err != nil {
			return nil, err
		}
		return singletonBool(pred(a, b)), nil
	}
}

// argNumber extracts argument i as a number.
func argNumber(args []Seq, i int) (float64, bool, error) {
	if i >= len(args) || len(args[i]) == 0 {
		return 0, true, nil
	}
	if len(args[i]) > 1 {
		return 0, false, errf("XPTY0004", "expected a single numeric value")
	}
	return toNumber(args[i][0]), false, nil
}

func registerSequenceFuncs() {
	register("count", 1, 1, func(c *context, args []Seq) (Seq, error) {
		return singleton(float64(len(args[0]))), nil
	})
	register("empty", 1, 1, func(c *context, args []Seq) (Seq, error) {
		return singletonBool(len(args[0]) == 0), nil
	})
	register("exists", 1, 1, func(c *context, args []Seq) (Seq, error) {
		return singletonBool(len(args[0]) > 0), nil
	})
	register("not", 1, 1, func(c *context, args []Seq) (Seq, error) {
		b, err := ebv(args[0])
		if err != nil {
			return nil, err
		}
		return singletonBool(!b), nil
	})
	register("boolean", 1, 1, func(c *context, args []Seq) (Seq, error) {
		b, err := ebv(args[0])
		if err != nil {
			return nil, err
		}
		return singleton(b), nil
	})
	register("true", 0, 0, func(c *context, args []Seq) (Seq, error) {
		return singleton(true), nil
	})
	register("false", 0, 0, func(c *context, args []Seq) (Seq, error) {
		return singleton(false), nil
	})
	register("distinct-values", 1, 1, func(c *context, args []Seq) (Seq, error) {
		seen := map[string]bool{}
		var out Seq
		for _, it := range args[0] {
			v := c.atomize(it)
			key := stringValue(v)
			if _, isNum := v.(float64); isNum {
				key = "#n:" + key
			}
			if !seen[key] {
				seen[key] = true
				out = append(out, v)
			}
		}
		return out, nil
	})
	register("reverse", 1, 1, func(c *context, args []Seq) (Seq, error) {
		in := args[0]
		out := make(Seq, len(in))
		for i, it := range in {
			out[len(in)-1-i] = it
		}
		return out, nil
	})
	register("subsequence", 2, 3, func(c *context, args []Seq) (Seq, error) {
		in := args[0]
		start, _, err := argNumber(args, 1)
		if err != nil {
			return nil, err
		}
		start = math.Round(start)
		end := math.Inf(1)
		if len(args) == 3 {
			length, _, err := argNumber(args, 2)
			if err != nil {
				return nil, err
			}
			end = start + math.Round(length)
		}
		var out Seq
		for i, it := range in {
			p := float64(i + 1)
			if p >= start && p < end {
				out = append(out, it)
			}
		}
		return out, nil
	})
	register("index-of", 2, 2, func(c *context, args []Seq) (Seq, error) {
		if len(args[1]) != 1 {
			return nil, errf("XPTY0004", "index-of: search target must be a single value")
		}
		target := c.atomize(args[1][0])
		var out Seq
		for i, it := range args[0] {
			cres, ok := compareAtomic("=", c.atomize(it), target)
			if ok && cres == 0 {
				out = append(out, float64(i+1))
			}
		}
		return out, nil
	})
	register("insert-before", 3, 3, func(c *context, args []Seq) (Seq, error) {
		pos, _, err := argNumber(args, 1)
		if err != nil {
			return nil, err
		}
		p := int(math.Round(pos))
		if p < 1 {
			p = 1
		}
		if p > len(args[0])+1 {
			p = len(args[0]) + 1
		}
		out := make(Seq, 0, len(args[0])+len(args[2]))
		out = append(out, args[0][:p-1]...)
		out = append(out, args[2]...)
		out = append(out, args[0][p-1:]...)
		return out, nil
	})
	register("remove", 2, 2, func(c *context, args []Seq) (Seq, error) {
		pos, _, err := argNumber(args, 1)
		if err != nil {
			return nil, err
		}
		p := int(math.Round(pos))
		var out Seq
		for i, it := range args[0] {
			if i+1 != p {
				out = append(out, it)
			}
		}
		return out, nil
	})
	register("position", 0, 0, func(c *context, args []Seq) (Seq, error) {
		if c.pos == 0 {
			return nil, errf("XPDY0002", "position() outside of a predicate or iteration")
		}
		return singleton(float64(c.pos)), nil
	})
	register("last", 0, 0, func(c *context, args []Seq) (Seq, error) {
		if c.size == 0 {
			return nil, errf("XPDY0002", "last() outside of a predicate or iteration")
		}
		return singleton(float64(c.size)), nil
	})
}

func registerNumericFuncs() {
	register("number", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		if len(v) != 1 {
			return singleton(math.NaN()), nil
		}
		return singleton(toNumber(v[0])), nil
	})
	fold := func(name string, f func(acc, x float64) float64) func(*context, []Seq) (Seq, error) {
		return func(c *context, args []Seq) (Seq, error) {
			if len(args[0]) == 0 {
				if name == "sum" {
					return singleton(0.0), nil
				}
				return Seq{}, nil
			}
			acc := toNumber(args[0][0])
			for _, it := range args[0][1:] {
				acc = f(acc, toNumber(it))
			}
			return singleton(acc), nil
		}
	}
	register("sum", 1, 1, fold("sum", func(a, x float64) float64 { return a + x }))
	register("avg", 1, 1, func(c *context, args []Seq) (Seq, error) {
		if len(args[0]) == 0 {
			return Seq{}, nil
		}
		sum := 0.0
		for _, it := range args[0] {
			sum += toNumber(it)
		}
		return singleton(sum / float64(len(args[0]))), nil
	})
	register("min", 1, 1, minMaxFn(true))
	register("max", 1, 1, minMaxFn(false))
	unary := func(f func(float64) float64) func(*context, []Seq) (Seq, error) {
		return func(c *context, args []Seq) (Seq, error) {
			if len(args[0]) == 0 {
				return Seq{}, nil
			}
			if len(args[0]) > 1 {
				return nil, errf("XPTY0004", "expected a single numeric value")
			}
			return singleton(f(toNumber(args[0][0]))), nil
		}
	}
	register("floor", 1, 1, unary(math.Floor))
	register("ceiling", 1, 1, unary(math.Ceil))
	register("round", 1, 1, unary(func(x float64) float64 { return math.Floor(x + 0.5) }))
	register("abs", 1, 1, unary(math.Abs))
}

func minMaxFn(wantMin bool) func(*context, []Seq) (Seq, error) {
	return func(c *context, args []Seq) (Seq, error) {
		if len(args[0]) == 0 {
			return Seq{}, nil
		}
		best := c.atomize(args[0][0])
		for _, it := range args[0][1:] {
			v := c.atomize(it)
			cres, ok := compareForOrder(v, best)
			if !ok {
				continue
			}
			if (wantMin && cres < 0) || (!wantMin && cres > 0) {
				best = v
			}
		}
		return singleton(best), nil
	}
}

func registerNodeFuncs() {
	register("name", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return singleton(""), nil
		}
		n, ok := v[0].(*dom.Node)
		if !ok {
			return nil, errf("XPTY0004", "name() requires a node")
		}
		return singleton(n.Name), nil
	})
	register("local-name", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return singleton(""), nil
		}
		n, ok := v[0].(*dom.Node)
		if !ok {
			return nil, errf("XPTY0004", "local-name() requires a node")
		}
		name := n.Name
		if i := strings.LastIndexByte(name, ':'); i >= 0 {
			name = name[i+1:]
		}
		return singleton(name), nil
	})
	register("root", 0, 1, func(c *context, args []Seq) (Seq, error) {
		v, err := argOrContext(c, args, 0)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return Seq{}, nil
		}
		n, ok := v[0].(*dom.Node)
		if !ok {
			return nil, errf("XPTY0004", "root() requires a node")
		}
		if d := c.st.docFor(n); d.Owns(n) || n == d.Root {
			return singleton(d.Root), nil
		}
		return singleton((*dom.Node)(n.Root())), nil
	})
	register("data", 1, 1, func(c *context, args []Seq) (Seq, error) {
		return c.atomizeSeq(args[0]), nil
	})
	register("deep-equal", 2, 2, func(c *context, args []Seq) (Seq, error) {
		if len(args[0]) != len(args[1]) {
			return singleton(false), nil
		}
		for i := range args[0] {
			a, aok := args[0][i].(*dom.Node)
			b, bok := args[1][i].(*dom.Node)
			if aok != bok {
				return singleton(false), nil
			}
			if aok {
				if dom.XML(a) != dom.XML(b) {
					return singleton(false), nil
				}
				continue
			}
			cres, ok := compareAtomic("=", args[0][i], args[1][i])
			if !ok || cres != 0 {
				return singleton(false), nil
			}
		}
		return singleton(true), nil
	})
	register("serialize", 1, 1, func(c *context, args []Seq) (Seq, error) {
		return singleton(Serialize(args[0])), nil
	})

	// Multihierarchical extension functions (documented in README).
	registerExt("hierarchy", 1, 1, func(c *context, args []Seq) (Seq, error) {
		n, err := oneNode(args, 0)
		if err != nil {
			return nil, err
		}
		if n == c.st.docFor(n).Root {
			return Seq{}, nil
		}
		if n.Kind == dom.Leaf {
			var out Seq
			for _, p := range c.st.docFor(n).LeafParents(n) {
				out = append(out, p.Hier)
			}
			return out, nil
		}
		if n.Hier == "" {
			return Seq{}, nil
		}
		return singleton(n.Hier), nil
	})
	registerExt("hierarchies", 0, 0, func(c *context, args []Seq) (Seq, error) {
		var out Seq
		for _, name := range contextDoc(c).HierarchyNames() {
			out = append(out, name)
		}
		return out, nil
	})
	registerExt("leaves", 1, 1, func(c *context, args []Seq) (Seq, error) {
		n, err := oneNode(args, 0)
		if err != nil {
			return nil, err
		}
		var out Seq
		for _, l := range c.st.docFor(n).LeavesOf(n) {
			out = append(out, l)
		}
		return out, nil
	})
	registerExt("base-text", 0, 0, func(c *context, args []Seq) (Seq, error) {
		return singleton(contextDoc(c).Text), nil
	})
	registerExt("span-start", 1, 1, func(c *context, args []Seq) (Seq, error) {
		n, err := oneNode(args, 0)
		if err != nil {
			return nil, err
		}
		return singleton(float64(n.Start)), nil
	})
	registerExt("span-end", 1, 1, func(c *context, args []Seq) (Seq, error) {
		n, err := oneNode(args, 0)
		if err != nil {
			return nil, err
		}
		return singleton(float64(n.End)), nil
	})
}
