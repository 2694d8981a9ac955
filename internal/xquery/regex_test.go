package xquery

import (
	"fmt"
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
		n, cached := len(reCache), reCache["(?i)"+pat]
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
