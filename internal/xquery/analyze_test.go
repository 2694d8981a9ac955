package xquery

import (
	"strings"
	"testing"
	"testing/quick"

	"mhxquery/internal/core"
	"mhxquery/internal/xmlparse"
)

func TestStripOuterDotStar(t *testing.T) {
	cases := map[string]string{
		".*unawe.*":        "unawe",
		".*?unawe.*":       "unawe",
		"unawe":            "unawe",
		".*un<a>a</a>we.*": "un<a>a</a>we",
		".*.*x.*":          "x",
		`a\.*`:             `a\.*`, // escaped dot: not stripped
		".*":               ".*",   // stripping everything keeps the original
		"x.*y":             "x.*y", // inner .* untouched
	}
	for in, want := range cases {
		if got := stripOuterDotStar(in); got != want {
			t.Errorf("stripOuterDotStar(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTranslateFragmentPattern(t *testing.T) {
	re, groups, err := translateFragmentPattern("un<a>a</a>we")
	if err != nil {
		t.Fatal(err)
	}
	if re != "un(a)we" {
		t.Errorf("regex = %q", re)
	}
	if len(groups) != 1 || groups[0].name != "a" || groups[0].parent != -1 {
		t.Errorf("groups = %+v", groups)
	}

	// Nested tags nest groups.
	re, groups, err = translateFragmentPattern("<o>x<i>y</i>z</o>")
	if err != nil {
		t.Fatal(err)
	}
	if re != "(x(y)z)" {
		t.Errorf("nested regex = %q", re)
	}
	if len(groups) != 2 || groups[1].parent != 0 {
		t.Errorf("nested groups = %+v", groups)
	}

	// User parentheses become non-capturing; existing (?...) is kept.
	re, _, err = translateFragmentPattern("(ab)+<g>c</g>(?:d)")
	if err != nil {
		t.Fatal(err)
	}
	if re != "(?:ab)+(c)(?:d)" {
		t.Errorf("neutralized regex = %q", re)
	}

	// Character classes shield everything.
	re, groups, err = translateFragmentPattern(`[<(]x`)
	if err != nil {
		t.Fatal(err)
	}
	if re != `[<(]x` || len(groups) != 0 {
		t.Errorf("class regex = %q groups=%v", re, groups)
	}

	// Escapes shield tags.
	re, _, err = translateFragmentPattern(`\<a>`)
	if err != nil {
		t.Fatal(err)
	}
	if re != `\<a>` {
		t.Errorf("escaped regex = %q", re)
	}

	// Literal '<' not starting a name.
	re, _, err = translateFragmentPattern("a<1")
	if err != nil {
		t.Fatal(err)
	}
	if re != `a\<1` {
		t.Errorf("literal-lt regex = %q", re)
	}

	// Errors.
	for _, bad := range []string{"<a>x", "x</a>", "<a>x</b>"} {
		if _, _, err := translateFragmentPattern(bad); err == nil {
			t.Errorf("translate(%q) should fail", bad)
		}
	}
}

func TestQuickTranslateBalanced(t *testing.T) {
	// For patterns assembled from balanced tags and safe literals, the
	// translation must produce as many '(' as ')' plus one group entry
	// per tag pair.
	f := func(n uint8) bool {
		depth := int(n%4) + 1
		var b strings.Builder
		for i := 0; i < depth; i++ {
			b.WriteString("<g")
			b.WriteByte(byte('a' + i))
			b.WriteString(">x")
		}
		for i := depth - 1; i >= 0; i-- {
			b.WriteString("</g")
			b.WriteByte(byte('a' + i))
			b.WriteString(">")
		}
		re, groups, err := translateFragmentPattern(b.String())
		if err != nil {
			return false
		}
		return len(groups) == depth &&
			strings.Count(re, "(") == depth && strings.Count(re, ")") == depth
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAnalyzeStringSkipsRegisteredNames is the regression test for
// temporaries colliding with user hierarchies: a document whose own
// hierarchies are called rest and rest2 must still run analyze-string,
// twice in one evaluation, with the temporaries taking the next free
// names (rest3, rest4).
func TestAnalyzeStringSkipsRegisteredNames(t *testing.T) {
	var trees []core.NamedTree
	for _, h := range []struct{ name, xml string }{
		{"rest", `<r><w>hello</w> <w>world</w></r>`},
		{"rest2", `<r><p>hello world</p></r>`},
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
	for _, tc := range []struct{ src, want string }{
		{`for $w in //w return string(analyze-string($w, "o")/descendant::m[1])`, "o o"},
		{`let $a := analyze-string((//w)[1], "l") let $b := analyze-string((//w)[2], "o")
return (count(//m('rest3')), count(//m('rest4')), count(//w('rest')), count(//p('rest2')))`, "2 1 2 1"},
	} {
		for _, route := range []string{"strict", "stream"} {
			q := MustCompile(tc.src)
			var got Seq
			if route == "strict" {
				got, err = q.Eval(d)
			} else {
				got, err = drainStream(q.Stream(nil, d, nil, nil))
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", tc.src, route, err)
			}
			if s := SerializeText(got); s != tc.want {
				t.Errorf("%s (%s) = %q, want %q", tc.src, route, s, tc.want)
			}
		}
	}
}
