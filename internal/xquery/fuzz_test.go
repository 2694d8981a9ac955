package xquery

import (
	stdctx "context"
	"strings"
	"testing"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

// fuzzDoc is the document the fuzzers plan and apply updates against.
var fuzzDoc = corpus.MustBoethius()

// FuzzParse fuzzes the lexer/parser/lowering front end: Compile must
// never panic, whatever the input. (Evaluation is deliberately out of
// scope — arbitrary queries can be made unboundedly expensive, e.g.
// huge ranges; the differential sweeps cover evaluation.) CI runs this
// as a non-gating smoke: go test -fuzz=FuzzParse -fuzztime=30s.
func FuzzParse(f *testing.F) {
	for _, seed := range diffQueries {
		f.Add(seed)
	}
	f.Add(`for $x at $p in //w order by string($x) descending return <a b="{$x}">{$x, 1 to 3}</a>`)
	f.Add(`some $x in /a satisfies every $y in $x satisfies $y eq $x`)
	f.Add(`element {concat("a","b")} {attribute c {1}, comment {"d"}}`)
	f.Add(`/descendant::w('физ,damage')[position() <= 2]/xancestor::node()`)
	f.Add("`\x00\xff<")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src)
		if err != nil {
			return
		}
		// Compile lowered the query; rendering its plan must be total too.
		_ = q.PlanFor(fuzzDoc).Describe()
	})
}

// FuzzUpdate fuzzes the update-expression parser AND applier: neither
// may panic, every error must carry an error code, and the source
// document must come through an Apply — successful or not — bit-for-bit
// untouched. Applies run under a short deadline since target
// expressions are arbitrary queries. CI runs this as a non-gating
// smoke: go test -fuzz=FuzzUpdate -fuzztime=30s.
func FuzzUpdate(f *testing.F) {
	f.Add(`delete node (//dmg)[1]`)
	f.Add(`rename node //w as "word", insert node seg into (//vline)[1]`)
	f.Add(`replace value of node (//w)[2] with "xyz"`)
	f.Add(`insert hierarchy "h" from analyze-string(/, "e")/child::m`)
	f.Add(`insert node p before (//w)[1], insert node q after (//w)[1]`)
	f.Add(`delete hierarchy "damage"`)
	f.Add("delete node\x00")
	f.Fuzz(func(t *testing.T, src string) {
		u, err := CompileUpdate(src)
		if err != nil {
			if xe, ok := err.(*Error); !ok || xe.Code == "" {
				t.Fatalf("CompileUpdate(%q): uncoded error %v", src, err)
			}
			return
		}
		ctx, cancel := stdctx.WithTimeout(stdctx.Background(), 2*time.Second)
		defer cancel()
		before := hierNames(fuzzDoc)
		nd, _, err := u.ApplyContext(ctx, fuzzDoc, nil)
		if err != nil {
			if xe, ok := err.(*Error); !ok || xe.Code == "" {
				t.Fatalf("Apply(%q): uncoded error %v", src, err)
			}
		} else if nd != nil && nd != fuzzDoc && nd.Rev != fuzzDoc.Rev+1 {
			t.Fatalf("Apply(%q): new version Rev = %d, want %d", src, nd.Rev, fuzzDoc.Rev+1)
		}
		if hierNames(fuzzDoc) != before {
			t.Fatalf("Apply(%q) mutated the source document", src)
		}
	})
}

// hierNames lists d's registered hierarchy names in order.
func hierNames(d *core.Document) string {
	names := make([]string, len(d.Hiers))
	for i, h := range d.Hiers {
		names[i] = h.Name
	}
	return strings.Join(names, ",")
}
