package collection

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/xmlparse"
	"mhxquery/internal/xquery"
)

// genDoc builds a deterministic synthetic document.
func genDoc(t testing.TB, seed uint64, words int) *core.Document {
	t.Helper()
	d, err := corpus.Generate(corpus.Params{Seed: seed, Words: words}).Document()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fill populates c with n generated documents named doc00, doc01, ...
func fill(t testing.TB, c *Collection, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%02d", i), genDoc(t, uint64(i+1), 60)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegistryBasics(t *testing.T) {
	c := New(Options{})
	fill(t, c, 3)
	if got := c.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	want := []string{"doc00", "doc01", "doc02"}
	if got := c.Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Names = %v, want %v", got, want)
	}
	if _, ok := c.Get("doc01"); !ok {
		t.Fatal("Get(doc01) not found")
	}
	if _, ok := c.Get("nope"); ok {
		t.Fatal("Get(nope) unexpectedly found")
	}
	// Replacement keeps the name unique and is reported.
	replaced, err := c.Put("doc01", genDoc(t, 99, 40))
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Fatal("Put over an existing name did not report replaced")
	}
	if replaced, err := c.Put("fresh", genDoc(t, 98, 40)); err != nil || replaced {
		t.Fatalf("Put(fresh): replaced=%v err=%v", replaced, err)
	}
	if err := c.Delete("fresh"); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("Len after replace = %d, want 3", got)
	}
	if err := c.Delete("doc01"); err != nil {
		t.Fatal(err)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len after delete = %d, want 2", got)
	}
}

// TestQueryAllocsIndependentOfRegistrySize checks that a single-document
// query reads the registry's view as it is, without copying or sorting
// the registry: it allocates as many bytes at 256 member documents as
// at 16 (copying 256 entries would add kilobytes).
func TestQueryAllocsIndependentOfRegistrySize(t *testing.T) {
	d := genDoc(t, 1, 60)
	bytesPerQuery := func(n int) uint64 {
		c := New(Options{})
		for i := 0; i < n; i++ {
			if _, err := c.Put(fmt.Sprintf("doc%03d", i), d); err != nil {
				t.Fatal(err)
			}
		}
		query := func() {
			if _, err := c.Query("doc000", `count(/descendant::w)`); err != nil {
				t.Fatal(err)
			}
		}
		query()
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if few, many := bytesPerQuery(16), bytesPerQuery(256); many > few+256 {
		t.Errorf("a query allocates %d bytes at 16 member documents, %d at 256", few, many)
	}
}

func TestPutRejectsBadNames(t *testing.T) {
	c := New(Options{})
	d := genDoc(t, 1, 20)
	for _, name := range []string{"", ".", "..", "a/b", "../escape", ".hidden", "sp ace", "a\x00b"} {
		if _, err := c.Put(name, d); err == nil {
			t.Errorf("Put(%q) succeeded, want error", name)
		}
	}
	for _, name := range []string{"a", "doc-1", "doc_1", "Doc.v2"} {
		if _, err := c.Put(name, d); err != nil {
			t.Errorf("Put(%q): %v", name, err)
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 3)
	// Put persists each image to dir before publishing it.
	for _, name := range c.Names() {
		if _, err := os.Stat(filepath.Join(dir, name+imageExt)); err != nil {
			t.Fatalf("image for %s: %v", name, err)
		}
	}
	if err := c.Delete("doc02"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "doc02"+imageExt)); !os.IsNotExist(err) {
		t.Fatalf("image for doc02 survived delete: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("late", genDoc(t, 7, 20)); err == nil {
		t.Fatal("Put after Close succeeded")
	}

	// A fresh Open sees the persisted corpus.
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(c2.Names(), ","), "doc00,doc01"; got != want {
		t.Fatalf("reopened Names = %q, want %q", got, want)
	}
	// And the reloaded documents answer queries identically.
	for _, name := range c2.Names() {
		a, err := c.Query(name, `count(/descendant::w)`)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c2.Query(name, `count(/descendant::w)`)
		if err != nil {
			t.Fatal(err)
		}
		if xquery.Serialize(a) != xquery.Serialize(b) {
			t.Fatalf("%s: reloaded answer %q != original %q", name, xquery.Serialize(b), xquery.Serialize(a))
		}
	}
}

func TestOpenIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.mhxg"), 0o755); err != nil {
		t.Fatal(err)
	}
	// A stale temp file (crash mid-Put) is swept on Open.
	stale := filepath.Join(dir, "doc00.12345.tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o600); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
}

func TestNotFoundErrors(t *testing.T) {
	c := New(Options{})
	fill(t, c, 1)
	if _, _, err := c.QueryDoc("nope", `1`); !errors.Is(err, ErrNotFound) {
		t.Fatalf("QueryDoc(nope) = %v, want ErrNotFound", err)
	}
	if _, err := c.ResolveDoc("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ResolveDoc(nope) = %v, want ErrNotFound", err)
	}
	if _, _, err := c.QueryDoc("doc00", `1`); err != nil {
		t.Fatalf("QueryDoc(doc00) = %v", err)
	}
}

func TestQueryAllFanOut(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := New(Options{Workers: workers})
			fill(t, c, 6)
			results, err := c.QueryAll(`count(/descendant::w)`, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 6 {
				t.Fatalf("got %d results, want 6", len(results))
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.Name, r.Err)
				}
				if want := fmt.Sprintf("doc%02d", i); r.Name != want {
					t.Fatalf("result %d is %q, want %q (name order)", i, r.Name, want)
				}
				if got := xquery.Serialize(r.Seq); got != "60" {
					t.Fatalf("%s: got %q, want 60 words", r.Name, got)
				}
			}
		})
	}
}

func TestQueryAllGlob(t *testing.T) {
	c := New(Options{})
	fill(t, c, 4)
	if _, err := c.Put("other", genDoc(t, 50, 30)); err != nil {
		t.Fatal(err)
	}
	results, err := c.QueryAll(`1`, "doc*")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("glob doc*: %d results, want 4", len(results))
	}
	if _, err := c.QueryAll(`1`, "["); err == nil {
		t.Fatal("bad glob accepted")
	}
	results, err = c.QueryAll(`1`, "zzz*")
	if err != nil || len(results) != 0 {
		t.Fatalf("non-matching glob: results=%v err=%v", results, err)
	}
}

func TestQueryAllPerDocumentErrors(t *testing.T) {
	c := New(Options{})
	fill(t, c, 2)
	// structure/physical exist in generated docs; querying a hierarchy
	// test that names a missing hierarchy fails per-document.
	results, err := c.QueryAll(`count(/descendant::node('nosuch'))`, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("%s: expected per-document error", r.Name)
		}
	}
	// Compile errors surface as the fan-out error, before any evaluation.
	if _, err := c.QueryAll(`for $x in`, ""); err == nil {
		t.Fatal("compile error not surfaced")
	}
}

func TestDocAndCollectionInsideQueries(t *testing.T) {
	c := New(Options{})
	fill(t, c, 3)
	// doc() reaches a sibling document from a single-doc query.
	got, err := c.Query("doc00", `count(doc("doc01")/descendant::w)`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.Serialize(got) != "60" {
		t.Fatalf("doc() = %q, want 60", xquery.Serialize(got))
	}
	// collection() ranges over the whole registry.
	got, err = c.Query("doc00", `sum(for $d in collection() return count($d/descendant::w))`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.Serialize(got) != "180" {
		t.Fatalf("collection() sum = %q, want 180", xquery.Serialize(got))
	}
}

func TestCompileCache(t *testing.T) {
	c := New(Options{CacheSize: 2})
	q1, err := c.Compile(`1 + 1`)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Compile(`1 + 1`)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("cache did not reuse the compiled query")
	}
	st := c.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	// Eviction: capacity 2, third distinct query evicts the LRU.
	if _, err := c.Compile(`2 + 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Compile(`3 + 3`); err != nil {
		t.Fatal(err)
	}
	st = c.CacheStats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
	q4, err := c.Compile(`1 + 1`) // evicted; recompiles
	if err != nil {
		t.Fatal(err)
	}
	if q4 == q1 {
		t.Fatal("evicted query unexpectedly reused")
	}
	// Compile errors are not cached.
	if _, err := c.Compile(`for $x in`); err == nil {
		t.Fatal("compile error not surfaced")
	}
	// Disabled cache still compiles.
	c2 := New(Options{CacheSize: -1})
	if _, err := c2.Compile(`1`); err != nil {
		t.Fatal(err)
	}
	if st := c2.CacheStats(); st.Capacity != 0 {
		t.Fatalf("disabled cache stats = %+v", st)
	}
}

// otherLayoutDoc builds a single-hierarchy document whose hierarchy
// names differ from the generated corpus layout.
func otherLayoutDoc(t testing.TB) *core.Document {
	t.Helper()
	root, err := xmlparse.Parse(`<r><col>q</col></r>`, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Build([]core.NamedTree{{Name: "cols", Root: root}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOnePlanAcrossDocuments checks that a cached query runs one plan
// on every member document, whatever its hierarchy layout, and that a
// disabled compile cache still evaluates.
func TestOnePlanAcrossDocuments(t *testing.T) {
	c := New(Options{CacheSize: 4})
	// Two documents with the same hierarchy layout (the generated
	// corpus always registers the same hierarchy names) and one with
	// another.
	if _, err := c.Put("a", genDoc(t, 1, 20)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("b", genDoc(t, 2, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("c", otherLayoutDoc(t)); err != nil {
		t.Fatal(err)
	}

	const src = `count(/descendant::w)`
	q, err := c.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := c.Get("a")
	plan := q.PlanFor(da)
	for _, name := range []string{"a", "b", "c", "a"} {
		if _, err := c.Query(name, src); err != nil {
			t.Fatal(err)
		}
		again, err := c.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if d, _ := c.Get(name); again != q || again.PlanFor(d) != plan {
			t.Fatalf("%s: the compile cache served another query or plan", name)
		}
	}

	// ExplainDoc reports the index-scan decision.
	_, tree, _, err := c.ExplainDoc("a", src)
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(tree, "index-scan") {
		t.Fatalf("ExplainDoc plan lacks an index-scan operator: %+v", tree)
	}

	// A disabled compile cache still evaluates: every query is compiled,
	// and so lowered, afresh.
	c2 := New(Options{CacheSize: -1})
	if _, err := c2.Put("a", genDoc(t, 1, 10)); err != nil {
		t.Fatal(err)
	}
	var plans []*xquery.Plan
	for i := 0; i < 2; i++ {
		if _, err := c2.Query("a", src); err != nil {
			t.Fatal(err)
		}
		q, err := c2.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := c2.Get("a")
		plans = append(plans, q.PlanFor(d))
	}
	if plans[0] == plans[1] {
		t.Fatal("compile cache off: two compilations share a plan")
	}
}

func TestUpdatePublishesNewVersion(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fill(t, c, 1)

	old, _ := c.Get("doc00")
	before, err := c.Query("doc00", `count(//dmg)`)
	if err != nil {
		t.Fatal(err)
	}

	nd, rep, err := c.Update("doc00", `rename node //dmg as "worm"`)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Rev != 1 || rep.Ops != 1 {
		t.Fatalf("rev=%d report=%+v", nd.Rev, rep)
	}
	// The registry serves the new version; the old handle still answers.
	got, _ := c.Get("doc00")
	if got != nd {
		t.Fatal("registry did not publish the new version")
	}
	after, err := c.Query("doc00", `count(//worm)`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.Serialize(after) != xquery.Serialize(before) {
		t.Fatalf("count(//worm)=%s, want %s", xquery.Serialize(after), xquery.Serialize(before))
	}
	if res, err := xquery.EvalString(old, `count(//worm)`); err != nil || res != "0" {
		t.Fatalf("old snapshot sees worm: %q %v", res, err)
	}

	// Unknown documents 404 with ErrNotFound; bad expressions fail
	// without publishing anything.
	if _, _, err := c.Update("nope", `delete node //w`); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown doc: %v", err)
	}
	if _, _, err := c.Update("doc00", `rename node //worm as "line"`); err == nil {
		t.Fatal("vocabulary conflict must fail")
	}
	if got2, _ := c.Get("doc00"); got2 != nd {
		t.Fatal("failed update must not publish")
	}

	// Durable: a fresh collection over the directory has the updated
	// content.
	c.Close()
	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res, err := c2.Query("doc00", `count(//worm)`)
	if err != nil {
		t.Fatal(err)
	}
	if xquery.Serialize(res) != xquery.Serialize(before) {
		t.Fatalf("reloaded count(//worm) = %s", xquery.Serialize(res))
	}
}

// TestOpenServesIndexQueriesWithoutBuilds: snapshot images persist the
// per-hierarchy name-index runs, so a fresh Open followed by
// index-served queries performs zero index builds. The "fallback" leg is
// the read-into-memory open path, which is now the only one.
func TestOpenServesIndexQueriesWithoutBuilds(t *testing.T) {
	t.Run("fallback", func(t *testing.T) {
		dir := t.TempDir()
		c, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fill(t, c, 3)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		before := core.GlobalIndexStats().Builds
		c2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c2.Close()
		for _, name := range c2.Names() {
			res, err := c2.Query(name, `count(//w)`)
			if err != nil {
				t.Fatal(err)
			}
			if xquery.Serialize(res) == "0" {
				t.Fatalf("%s: no words found", name)
			}
		}
		if builds := core.GlobalIndexStats().Builds - before; builds != 0 {
			t.Fatalf("open + index queries performed %d index builds, want 0", builds)
		}
	})
}

// TestSnapshotFilesTruncatedUnderOpenCollection: an open collection
// serves its documents from private in-memory copies of the snapshot
// images. Another process truncating the files underneath it therefore
// cannot fault a read, and no image file stays mapped into the process
// once the collection is closed.
func TestSnapshotFilesTruncatedUnderOpenCollection(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, 3)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	images, err := filepath.Glob(filepath.Join(dir, "*"+imageExt))
	if err != nil || len(images) != 3 {
		t.Fatalf("images = %v (%v), want 3", images, err)
	}
	for _, p := range images {
		if err := os.Truncate(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A read of bytes that vanished from under a mapping raises SIGBUS;
	// with panic-on-fault it surfaces here as a recoverable panic.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, name := range c2.Names() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: read faulted after the image was truncated: %v", name, r)
				}
			}()
			res, err := c2.Query(name, `string((//w)[1])`)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if xquery.Serialize(res) == "" {
				t.Errorf("%s: first word is empty", name)
			}
			d, _ := c2.Get(name)
			for _, h := range d.HierarchyNames() {
				if _, err := d.Serialize(h); err != nil {
					t.Errorf("%s: serialize %s: %v", name, h, err)
				}
			}
		}()
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}

	// An Open/Close/Open cycle over an intact directory leaves no image
	// file in the process's address space.
	dir2 := t.TempDir()
	for i := 0; i < 2; i++ {
		c3, err := Open(dir2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			fill(t, c3, 2)
		}
		if err := c3.Close(); err != nil {
			t.Fatal(err)
		}
	}
	c4, err := Open(dir2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, imageExt) {
			t.Errorf("image file mapped into the process: %s", line)
		}
	}
}
