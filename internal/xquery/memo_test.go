package xquery

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// This file tests the per-version filter memo (core.Memo and
// survivors): a scan from the root whose predicates read only the
// candidate, a semi-join's filtered targets and the survivor sets of
// membership tests answer from the document version's memo once
// stored, and the stored answer is the one the predicates give.

// memoDoc is a published manuscript with damage and restorations.
func memoDoc(t testing.TB) *core.Document {
	t.Helper()
	d, err := corpus.Generate(corpus.Params{Seed: 31, Words: 120, DamageRate: 0.2, RestoreRate: 0.2}).Document()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// memoQueries are shapes whose root scans qualify for the memo, some
// with filtered semi-join targets.
var memoQueries = []string{
	`count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`,
	`//w[overlapping::line]`,
	`/descendant::w[matches(string(.), "a")]`,
	`//w[contains(string(.), 'e')]`,
	`/descendant::line[xdescendant::w[string(.) != 'x'] or overlapping::w[xancestor::dmg]]`,
	`for $w in /descendant::w[string-length(string(.)) > 3] return string($w)`,
}

// TestMemoRepeatedRunsMatchOracle runs every differential shape three
// times on one published version — a miss that sights the scan, a miss
// that stores it, and a hit — and holds each run to the AST oracle.
func TestMemoRepeatedRunsMatchOracle(t *testing.T) {
	t.Parallel()
	docs := planChoiceDocs(t)
	docs["memo"] = memoDoc(t)
	queries := append([]string{}, multiShapeQueries...)
	queries = append(queries, workloadShapes...)
	queries = append(queries, memoQueries...)
	g := &qgen{r: rand.New(rand.NewSource(20261019))}
	for i := 0; i < 60; i++ {
		queries = append(queries, g.query())
	}
	hits := core.GlobalIndexStats().MemoHits
	for _, src := range queries {
		q := MustCompile(src)
		for name, d := range docs {
			want, wantErr := oracleEval(q, d, nil, nil)
			for run := 1; run <= 3; run++ {
				got, err := q.Eval(d)
				sameOutcome(t, fmt.Sprintf("%s: %q run %d", name, src, run), got, err, want, wantErr)
			}
		}
	}
	if core.GlobalIndexStats().MemoHits == hits {
		t.Error("no run answered from the memo")
	}
}

// TestMemoStoresOnSecondSighting checks the admission rule: the first
// run of a scan stores nothing, the second stores its survivors and the
// third reads them.
func TestMemoStoresOnSecondSighting(t *testing.T) {
	d := memoDoc(t)
	q := MustCompile(`count(//w[overlapping::line])`)
	entries := func() int { return d.Memo().Stats().Entries }
	for run, want := range []int{0, 1, 1} {
		if _, err := q.Eval(d); err != nil {
			t.Fatal(err)
		}
		if got := entries(); got != want {
			t.Fatalf("after run %d: %d memo entries, want %d", run+1, got, want)
		}
	}
}

// TestMemoFollowsVersions checks that an update's new version answers
// with the edit and that the old version keeps its entries and answers.
func TestMemoFollowsVersions(t *testing.T) {
	d := memoDoc(t)
	q := MustCompile(`//w[string(.) != '']`)
	before, err := q.Eval(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Eval(d); err != nil {
			t.Fatal(err)
		}
	}
	old := d.Memo().Stats()
	u, err := CompileUpdate(`rename node (//w)[1] as "word"`)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := u.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := oracleEval(q, d2, nil, nil)
	if wantErr != nil || len(want) != len(before)-1 {
		t.Fatalf("the oracle gives %d words after the rename (err %v), %d before", len(want), wantErr, len(before))
	}
	for run := 1; run <= 3; run++ {
		got, err := q.Eval(d2)
		sameOutcome(t, fmt.Sprintf("new version run %d", run), got, err, want, nil)
	}
	if got := d.Memo().Stats(); got != old {
		t.Errorf("old version's memo changed: %+v, was %+v", got, old)
	}
	got, err := q.Eval(d)
	sameOutcome(t, "old version", got, err, before, nil)
}

// TestMemoConcurrentVersion runs memo-backed queries from 8 goroutines
// on one published version; under -race it checks the memo's locking.
func TestMemoConcurrentVersion(t *testing.T) {
	d := memoDoc(t)
	want := make([]string, len(memoQueries))
	for i, src := range memoQueries {
		res, err := oracleEval(MustCompile(src), d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Serialize(res)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				for k := range memoQueries {
					i := (k + g) % len(memoQueries)
					res, err := MustCompile(memoQueries[i]).Eval(d)
					if err != nil {
						t.Error(err)
						return
					}
					if got := Serialize(res); got != want[i] {
						t.Errorf("goroutine %d: %q = %s, want %s", g, memoQueries[i], got, want[i])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoCaps checks the memo's bounds on one version: distinct scans
// sighted once fill the sighting table only to its bound, and distinct
// scans stored fill the answer table only to its bound, evicting the
// least recently used.
func TestMemoCaps(t *testing.T) {
	d := memoDoc(t)
	src := func(i int) string { return fmt.Sprintf(`count(//w[string(.) != 'w%d'])`, i) }
	for i := 0; i < core.MemoMaxSeen+40; i++ {
		if _, err := MustCompile(src(i)).Eval(d); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Memo().Stats(); st.Seen != core.MemoMaxSeen || st.Entries != 0 {
		t.Fatalf("after %d one-off scans: %+v, want %d sightings and no entries", core.MemoMaxSeen+40, st, core.MemoMaxSeen)
	}
	n := core.MemoMaxEntries + 10
	for i := 0; i < n; i++ {
		q := MustCompile(src(1000 + i))
		for run := 0; run < 2; run++ {
			if _, err := q.Eval(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := d.Memo().Stats()
	if st.Entries != core.MemoMaxEntries || st.Seen > core.MemoMaxSeen || st.Ordinals > core.MemoMaxOrdinals {
		t.Fatalf("after %d stored scans: %+v, want %d entries", n, st, core.MemoMaxEntries)
	}
	// The most recently stored scan is still there, the first one not.
	for i, stored := range map[int]bool{0: false, n - 1: true} {
		key := setKey(fmt.Sprintf(`[(string(.) != "w%d")]`, 1000+i), d.NameSymOf("w"))
		if _, ok := d.Memo().Get(key); ok != stored {
			t.Errorf("scan %d stored = %v, want %v", i, ok, stored)
		}
	}
}

// TestMemoExclusions checks what never stores: scans whose predicates
// read more than the candidate, consumers that stop early, overlays,
// private versions and scans run while an overlay is active.
func TestMemoExclusions(t *testing.T) {
	base := memoDoc(t)
	r := overlayResolver{"other": base}
	for _, src := range []string{
		`let $x := 'a' return count(/descendant::w[string(.) != $x])`,
		`count(/descendant::w[position() > 1])`,
		`count(/descendant::w[last() > 1])`,
		`count(/descendant::w[exists(analyze-string(string(.), 'a'))])`,
		`count(/descendant::w[exists(doc('other'))])`,
		`count(/descendant::w[exists(<a/>)])`,
		`count(/descendant::w[some $c in xdescendant::dmg satisfies exists($c)])`,
		`(//w[overlapping::line])[1]`,
		`exists(//w[overlapping::line])`,
		`let $r := analyze-string((/descendant::w)[1], 'a') return count(/descendant::w[overlapping::line])`,
	} {
		d := base.Private().Publish()
		q := MustCompile(src)
		want, wantErr := oracleEval(q, d, nil, r)
		for run := 1; run <= 3; run++ {
			got, err := q.EvalWithResolver(d, nil, r)
			sameOutcome(t, fmt.Sprintf("%q run %d", src, run), got, err, want, wantErr)
		}
		if st := d.Memo().Stats(); st.Entries != 0 {
			t.Errorf("%q stored %d memo entries", src, st.Entries)
		}
	}

	// A consumer that stops early stores nothing, and the full answer
	// of the same scan afterwards is complete.
	d := base.Private().Publish()
	q := MustCompile(`//w[overlapping::line]`)
	for run := 0; run < 3; run++ {
		n := 0
		if err := q.Each(nil, d, nil, nil, func(Item) bool { n++; return n < 2 }); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Memo().Stats(); st.Entries != 0 {
		t.Errorf("stopped scans stored %d memo entries", st.Entries)
	}
	want, _ := oracleEval(q, d, nil, nil)
	for run := 1; run <= 3; run++ {
		got, err := q.Eval(d)
		sameOutcome(t, fmt.Sprintf("full scan after stopped ones, run %d", run), got, err, want, nil)
	}

	// Private versions and overlays have no memo at all.
	p := base.Private()
	for run := 0; run < 3; run++ {
		if _, err := q.Eval(p); err != nil {
			t.Fatal(err)
		}
	}
	if p.Memo() != nil {
		t.Error("a private version has a memo")
	}
	top := dom.NewElement("res")
	top.Start, top.End = 0, len(base.Text)
	overlay, err := base.AddHierarchy("rest", top, true)
	if err != nil {
		t.Fatal(err)
	}
	want, _ = oracleEval(q, overlay, nil, nil)
	for run := 1; run <= 3; run++ {
		got, err := q.Eval(overlay)
		sameOutcome(t, fmt.Sprintf("overlay run %d", run), got, err, want, nil)
	}
	if overlay.Memo() != nil {
		t.Error("an overlay has a memo")
	}
}

// TestMemoForcedPlans checks that a forced plan (planForce), whose
// slots hold other operators than the default plan's, leaves the
// version memo untouched, and that the default plan then still stores
// and reads its own entries.
func TestMemoForcedPlans(t *testing.T) {
	d := memoDoc(t)
	src := `/descendant::line[xdescendant::w[string(.) != 'x'] or overlapping::w[xancestor::dmg]]`
	q := MustCompile(src)
	want, wantErr := oracleEval(q, d, nil, nil)
	for _, k := range planKnobs[1:] {
		pl := newPlan(q, k.force)
		for run := 1; run <= 3; run++ {
			got, err := pl.Eval(d, nil, nil)
			sameOutcome(t, fmt.Sprintf("[%s] run %d", k.name, run), got, err, want, wantErr)
		}
		if st := d.Memo().Stats(); st != (core.MemoStats{}) {
			t.Errorf("[%s] plan left the version memo at %+v, want it untouched", k.name, st)
		}
	}
	for run := 1; run <= 3; run++ {
		got, err := q.Eval(d)
		sameOutcome(t, fmt.Sprintf("[default] run %d", run), got, err, want, wantErr)
	}
	if d.Memo().Stats().Entries == 0 {
		t.Error("the default plan stored no memo entry")
	}
}

// TestMemoTargetsOncePerEvaluation checks that a semi-join's filtered
// target sets are computed once per evaluation even where the version
// memo cannot keep them: with more target filters than the memo holds,
// each context segment's bind finds the sets stored earlier in the
// evaluation evicted, and would compute them again.
func TestMemoTargetsOncePerEvaluation(t *testing.T) {
	d := memoDoc(t)
	terms := make([]string, core.MemoMaxEntries+6)
	for i := range terms {
		terms[i] = fmt.Sprintf(`xancestor::line[string(.) != 'x%d']`, i)
	}
	q := MustCompile(`count(/descendant::vline/child::w[` + strings.Join(terms, " or ") + `])`)
	if len(findOps(q.plan.Describe(), "semi-join")) != 1 {
		t.Fatal("the predicate did not lower to a semi-join")
	}
	want, wantErr := oracleEval(q, d, nil, nil)
	for run := 1; run <= 3; run++ {
		misses := core.GlobalIndexStats().MemoMisses
		got, err := q.Eval(d)
		sameOutcome(t, fmt.Sprintf("run %d", run), got, err, want, wantErr)
		if n := core.GlobalIndexStats().MemoMisses - misses; n != uint64(len(terms)) {
			t.Errorf("run %d looked up %d target sets in the version memo and missed, want one miss per target filter (%d)", run, n, len(terms))
		}
	}
}

// TestMemoUpdateExpressions checks that the expressions of one update,
// which share its source, keep apart in the memo: applying the update
// to one version again and again gives the first application's result.
func TestMemoUpdateExpressions(t *testing.T) {
	d := memoDoc(t)
	u, err := CompileUpdate(`delete node /descendant::line[xdescendant::dmg], delete node /descendant::w[overlapping::dmg]`)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for run := 1; run <= 3; run++ {
		d2, _, err := u.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvalString(d2, `(count(//line), count(//w))`)
		if err != nil {
			t.Fatal(err)
		}
		if run == 1 {
			want = got
		} else if got != want {
			t.Errorf("application %d leaves %s lines and words, the first left %s", run, got, want)
		}
	}
}

// structuralQueries ask structural tests one node at a time: the
// paper-read join's where clause and Query I.2's leaf test, the forms
// that answer from survivor sets.
var structuralQueries = []string{
	`count(for $v in /descendant::vline for $w in $v/child::w where exists($w/overlapping::dmg) return $w)`,
	`for $l in /descendant::leaf() where $l[ancestor::w and ancestor::dmg] return $l`,
}

// TestMemoSharedStructuralEntry checks that a survivor set is named by
// what it denotes: two query texts asking the same test of one version
// share one memo entry, which the first query stores on its second run
// and the second query reads on its first.
func TestMemoSharedStructuralEntry(t *testing.T) {
	d := memoDoc(t)
	key := setKey("[overlapping::dmg]", d.NameSymOf("w"))
	first := MustCompile(structuralQueries[0])
	second := MustCompile(`count((/descendant::w)[overlapping::dmg])`)
	for run := 1; run <= 2; run++ {
		want, wantErr := oracleEval(first, d, nil, nil)
		got, err := first.Eval(d)
		sameOutcome(t, fmt.Sprintf("first query, run %d", run), got, err, want, wantErr)
	}
	if _, ok := d.Memo().Get(key); !ok {
		t.Fatalf("no survivor set stored under %+v after two runs", key)
	}
	entries, hits := d.Memo().Stats().Entries, core.GlobalIndexStats().MemoHits
	want, wantErr := oracleEval(second, d, nil, nil)
	got, err := second.Eval(d)
	sameOutcome(t, "second query", got, err, want, wantErr)
	if n := d.Memo().Stats().Entries; n != entries {
		t.Errorf("the second query took %d memo entries, want the first query's %d", n, entries)
	}
	if core.GlobalIndexStats().MemoHits == hits {
		t.Error("the second query did not read the stored set")
	}
}

// TestMemoConcurrentMembership asks the same membership tests from 8
// goroutines on one published version, so the set is sighted, built
// and read concurrently; under -race it checks the sharing.
func TestMemoConcurrentMembership(t *testing.T) {
	d := memoDoc(t)
	want := make([]string, len(structuralQueries))
	for i, src := range structuralQueries {
		res, err := oracleEval(MustCompile(src), d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = Serialize(res)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for run := 0; run < 4; run++ {
				i := (run + g) % len(structuralQueries)
				res, err := MustCompile(structuralQueries[i]).Eval(d)
				if err != nil {
					t.Error(err)
					return
				}
				if got := Serialize(res); got != want[i] {
					t.Errorf("goroutine %d run %d: %q = %s, want %s", g, run, structuralQueries[i], got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Memo().Stats().Entries == 0 {
		t.Error("no survivor set was stored")
	}
}

// TestMemoSetsFollowVersions runs membership tests on a version until
// its sets are stored, applies an update that changes their answers,
// and checks that the new version answers with the edit while the old
// one keeps its answers.
func TestMemoSetsFollowVersions(t *testing.T) {
	d := memoDoc(t)
	u, err := CompileUpdate(`delete node /descendant::dmg`)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range structuralQueries {
		q := MustCompile(src)
		before, err := oracleEval(q, d, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run <= 3; run++ {
			got, err := q.Eval(d)
			sameOutcome(t, fmt.Sprintf("%q run %d", src, run), got, err, before, nil)
		}
		d2, _, err := u.Apply(d)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := oracleEval(q, d2, nil, nil)
		if Serialize(want) == Serialize(before) {
			t.Fatalf("%q: the update leaves the answer as it was", src)
		}
		for run := 1; run <= 3; run++ {
			got, err := q.Eval(d2)
			sameOutcome(t, fmt.Sprintf("%q on the new version, run %d", src, run), got, err, want, nil)
		}
		got, err := q.Eval(d)
		sameOutcome(t, fmt.Sprintf("%q on the old version", src), got, err, before, nil)
	}
}

// TestMemoFreshVersionAllocs pins the memo's bookkeeping on a version's
// first query: sighting a key allocates nothing, so a scan on a fresh
// published copy allocates what it does on a private copy, which has no
// memo.
func TestMemoFreshVersionAllocs(t *testing.T) {
	d := memoDoc(t)
	q := MustCompile(`//w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]`)
	allocs := func(version func() *core.Document) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := q.Eval(version()); err != nil {
				t.Fatal(err)
			}
		})
	}
	published := allocs(func() *core.Document { return d.Private().Publish() })
	private := allocs(func() *core.Document { return d.Private() })
	if published != private {
		t.Errorf("a query on a fresh published version allocates %v objects, on a private one %v", published, private)
	}
}

// TestMemoScanIsSurvivorSet checks that a root scan under a
// candidate-only predicate is the survivor set of its name's run: two
// runs of a count store one set, named by the predicate, and a scan in
// another query and a membership test on a bound node then read that
// set on their first run, storing nothing new.
func TestMemoScanIsSurvivorSet(t *testing.T) {
	d := memoDoc(t)
	key := setKey("[overlapping::line]", d.NameSymOf("w"))
	count := MustCompile(`count(//w[overlapping::line])`)
	for run := 1; run <= 2; run++ {
		want, wantErr := oracleEval(count, d, nil, nil)
		got, err := count.Eval(d)
		sameOutcome(t, fmt.Sprintf("count, run %d", run), got, err, want, wantErr)
	}
	if st := d.Memo().Stats(); st.Entries != 1 {
		t.Fatalf("two runs of the count left %d memo entries, want 1", st.Entries)
	}
	if _, ok := d.Memo().Get(key); !ok {
		t.Fatalf("no survivor set stored under %+v", key)
	}
	for _, src := range []string{
		`for $w in //w[overlapping::line] return string($w)`,
		`for $v in //vline for $w in $v/w where $w[overlapping::line] return $w`,
	} {
		q := MustCompile(src)
		want, wantErr := oracleEval(q, d, nil, nil)
		hits := core.GlobalIndexStats().MemoHits
		got, err := q.Eval(d)
		sameOutcome(t, src, got, err, want, wantErr)
		if core.GlobalIndexStats().MemoHits == hits {
			t.Errorf("%q did not read the stored set on its first run", src)
		}
		if st := d.Memo().Stats(); st.Entries != 1 {
			t.Errorf("%q left %d memo entries, want the count's one", src, st.Entries)
		}
	}
}

// TestCandidateOnlyKeys checks that one key never names two predicates.
// Every predicate the generator emits that candidateOnly accepts, and
// two respellings of it, must select the same nodes (or raise the same
// error) as every other predicate with its predKey, on every
// planChoiceDocs document; and repeated scans under them on one
// published version, which share the version memo, must keep giving
// the oracle's answer. candidateOnly must reject every kind of
// expression canon does not print in full.
func TestCandidateOnlyKeys(t *testing.T) {
	t.Parallel()
	parse := func(src string) expr {
		e, err := parseQuery(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		return e
	}
	for _, src := range []string{
		`string-length(string(.)) + 1 > 3`,
		`-string-length(string(.)) < 0`,
		`exists((.)/xancestor::dmg)`,
		`xancestor::dmg/string(.) = 'a'`,
		`exists(xancestor::dmg[string(.) = $x])`,
		`string(.) = $x`,
		`exists(<a/>)`,
		`deep-equal(., element w {})`,
		`exists(analyze-string(string(.), 'a'))`,
		`exists(doc('x'))`,
		`exists(collection())`,
		`exists(if (true()) then . else ())`,
		`some $c in xancestor::dmg satisfies exists($c)`,
		`exists((xancestor::dmg)[1])`,
		`exists(xancestor::dmg | xdescendant::dmg)`,
		`exists((1 to 2))`,
		`exists((., .))`,
		`exists(/)`,
	} {
		if candidateOnly(parse(src)) {
			t.Errorf("candidateOnly accepts %q, which canon does not print", src)
		}
	}
	for _, src := range []string{
		`string(.) = 'a'`,
		`xancestor::dmg or overlapping::line`,
		`exists(xancestor::dmg[string(.) != ''])`,
		`contains(string(.), 'e')`,
		`/descendant::dmg`,
	} {
		if !candidateOnly(parse(src)) {
			t.Errorf("candidateOnly rejects %q", src)
		}
	}

	g := &qgen{r: rand.New(rand.NewSource(20261020))}
	var preds []string
	for len(preds) < 120 {
		src := g.pred(2)
		if !candidateOnly(parse(src)) {
			continue
		}
		preds = append(preds, src,
			strings.NewReplacer("string(", "fn:string(", "exists(", "fn:exists(").Replace(src),
			strings.ReplaceAll(src, "'", `"`))
	}
	type outcome struct {
		src  string
		res  Seq
		code string
	}
	for name, d := range planChoiceDocs(t) {
		pub := d.Private().Publish()
		for _, elem := range []string{"w", "line", "a"} {
			first := map[string]outcome{}
			for _, pr := range preds {
				key := predKey([]expr{parse(pr)})
				q := MustCompile(`/descendant::` + elem + `[` + pr + `]`)
				want, wantErr := oracleEval(q, pub, nil, nil)
				o := outcome{src: pr, res: want, code: errCode(wantErr)}
				if f, ok := first[key]; !ok {
					first[key] = o
				} else if f.code != o.code || !sameItems(f.res, o.res) {
					t.Errorf("%s: %q and %q share the key %s but select differently from %s", name, f.src, pr, key, elem)
				}
				for run := 1; run <= 2; run++ {
					got, err := q.Eval(pub)
					sameOutcome(t, fmt.Sprintf("%s: %q run %d", name, q.Source(), run), got, err, want, wantErr)
				}
			}
		}
	}
}
