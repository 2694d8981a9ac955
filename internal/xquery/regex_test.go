package xquery

import (
	"fmt"
	"regexp"
	"testing"

	"mhxquery/internal/corpus"
)

// TestRegexCacheBounded drives more distinct patterns through
// compileRegex than the cache holds — what a stream of ad-hoc queries
// does — and checks the process-wide table never exceeds its capacity
// while the most recent pattern stays cached.
func TestRegexCacheBounded(t *testing.T) {
	for i := 0; i < 3*maxCachedRegexps+7; i++ {
		pat := fmt.Sprintf("bounded-%d", i)
		re, err := compileRegex(pat, "i")
		if err != nil {
			t.Fatal(err)
		}
		reMu.Lock()
		n, cached := len(reCache), reCache[reKey{pattern: pat, flags: "i"}]
		reMu.Unlock()
		if n > maxCachedRegexps {
			t.Fatalf("after %d patterns the regex cache holds %d entries, want <= %d", i+1, n, maxCachedRegexps)
		}
		if cached != re {
			t.Fatalf("pattern %q not served from the cache right after compiling", pat)
		}
	}
	// Evaluation goes through the same cache.
	q := MustCompile(`count(for $i in 1 to 600 return matches("x", concat("y", $i)))`)
	if _, err := q.Eval(corpus.MustBoethius()); err != nil {
		t.Fatal(err)
	}
	reMu.Lock()
	n := len(reCache)
	reMu.Unlock()
	if n > maxCachedRegexps {
		t.Fatalf("after a 600-pattern query the regex cache holds %d entries, want <= %d", n, maxCachedRegexps)
	}
}

// TestMatchesOuterDotStar checks that matches, which drops an
// unanchored leading or trailing .* before compiling, answers as the
// pattern as written does, and that a pattern RE2 rejects still raises
// FORX0002 when a .* prefix is dropped from it.
func TestMatchesOuterDotStar(t *testing.T) {
	d := corpus.MustBoethius()
	q := MustCompile(`matches($s, $p)`)
	inputs := []string{"", "e", "unaw", "unawe", "xxunaweyy", `unaw\`, "unaw...", "a.*", "ab"}
	for _, pat := range []string{`.*unawe.*`, `unaw\.*`, `.*`, `.*a.*?`, `\Qa.*`} {
		re := regexp.MustCompile(pat)
		for _, in := range inputs {
			v, err := q.EvalWithVars(d, map[string]Seq{"s": {in}, "p": {pat}})
			if err != nil {
				t.Fatalf("matches(%q, %q): %v", in, pat, err)
			}
			if want := re.MatchString(in); len(v) != 1 || v[0] != want {
				t.Errorf("matches(%q, %q) = %v, want %v", in, pat, v, want)
			}
		}
	}
	reMu.Lock()
	re, cached := reCache[reKey{pattern: ".*unawe.*", matches: true}]
	reMu.Unlock()
	if !cached || re.String() != "unawe" {
		t.Errorf(`matches(…, ".*unawe.*") did not compile "unawe"`)
	}
	for _, pat := range []string{`.*(`, `.*)a.*`, `.**`} {
		_, err := q.EvalWithVars(d, map[string]Seq{"s": {"a"}, "p": {pat}})
		if e, ok := err.(*Error); !ok || e.Code != "FORX0002" {
			t.Errorf("matches(\"a\", %q): err %v, want FORX0002", pat, err)
		}
	}
}

// TestMatchesLiteralPattern checks matches() calls whose pattern and
// flags are literals: they answer through the regex cache's key for
// matches() (outer .* dropped, \Q kept), and a literal pattern or flag
// that does not compile raises its error only when the call is
// evaluated, not when the query is compiled.
func TestMatchesLiteralPattern(t *testing.T) {
	d := corpus.MustBoethius()
	for _, tc := range []struct{ src, want string }{
		{`count(/descendant::w[matches(string(.), ".*unawe.*")])`, "1"},
		{`count(/descendant::w[matches(string(.), "^SING", "i")])`, "1"},
		{`count(/descendant::w[matches(string(.), "\Qa.*")])`, "0"},
		{`if (false()) then matches("a", "(") else "never evaluated"`, "never evaluated"},
		{`count(/descendant::zzz[matches(string(.), "(")])`, "0"},
	} {
		v, err := MustCompile(tc.src).Eval(d)
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if got := Serialize(v); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.src, got, tc.want)
		}
	}
	for _, tc := range []struct{ src, code string }{
		{`matches("a", "(")`, "FORX0002"},
		{`count(/descendant::w[matches(string(.), ".*(")])`, "FORX0002"},
		{`matches("a", "a", "q")`, "FORX0001"},
		{`matches(/descendant::w, "(")`, "XPTY0004"},
	} {
		q, err := Compile(tc.src)
		if err != nil {
			t.Errorf("compile %s: %v", tc.src, err)
			continue
		}
		_, err = q.Eval(d)
		if e, ok := err.(*Error); !ok || e.Code != tc.code {
			t.Errorf("%s: err %v, want %s", tc.src, err, tc.code)
		}
	}
}
