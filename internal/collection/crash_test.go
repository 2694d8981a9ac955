package collection

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
	"mhxquery/internal/wal"
)

// requireDocsEqual asserts got is field-identical to want: text,
// revision, bounds, leaf layout, every node of every hierarchy — and
// that got's incrementally maintained name indexes match a
// from-scratch rebuild (the differential oracle of the update engine).
func requireDocsEqual(t *testing.T, name string, got, want *core.Document) {
	t.Helper()
	// The comparison below reads node storage directly; a lazily opened
	// (slab-backed) document materializes first.
	got.Materialize()
	want.Materialize()
	if got.Rev != want.Rev {
		t.Fatalf("%s: rev %d, want %d", name, got.Rev, want.Rev)
	}
	if got.Text != want.Text {
		t.Fatalf("%s: text diverged:\n got %q\nwant %q", name, got.Text, want.Text)
	}
	if !reflect.DeepEqual(got.Bounds, want.Bounds) {
		t.Fatalf("%s: bounds diverged", name)
	}
	if len(got.Leaves) != len(want.Leaves) {
		t.Fatalf("%s: %d leaves, want %d", name, len(got.Leaves), len(want.Leaves))
	}
	for i := range got.Leaves {
		g, w := got.Leaves[i], want.Leaves[i]
		if g.Data != w.Data || g.Start != w.Start || g.End != w.End ||
			len(got.LeafParents(g)) != len(want.LeafParents(w)) {
			t.Fatalf("%s: leaf %d diverged", name, i)
		}
	}
	if len(got.Hiers) != len(want.Hiers) {
		t.Fatalf("%s: %d hierarchies, want %d", name, len(got.Hiers), len(want.Hiers))
	}
	for hi, h := range got.Hiers {
		wh := want.Hiers[hi]
		if h.Name != wh.Name || len(h.Nodes) != len(wh.Nodes) {
			t.Fatalf("%s: hierarchy %d: %q/%d nodes, want %q/%d",
				name, hi, h.Name, len(h.Nodes), wh.Name, len(wh.Nodes))
		}
		for i, n := range h.Nodes {
			m := wh.Nodes[i]
			if n.Kind != m.Kind || n.Name != m.Name || n.Start != m.Start || n.End != m.End ||
				n.Ord != m.Ord || n.Last != m.Last {
				t.Fatalf("%s: hierarchy %q node %d diverged: got %s %q [%d,%d), want %s %q [%d,%d)",
					name, h.Name, i, n.Kind, n.Name, n.Start, n.End, m.Kind, m.Name, m.Start, m.End)
			}
			if n.Kind == dom.Text && n.Data != m.Data {
				t.Fatalf("%s: hierarchy %q text %d: %q, want %q", name, h.Name, i, n.Data, m.Data)
			}
			if n.Kind == dom.Element {
				if len(n.Attrs) != len(m.Attrs) {
					t.Fatalf("%s: hierarchy %q node %d: %d attrs, want %d",
						name, h.Name, i, len(n.Attrs), len(m.Attrs))
				}
				for _, a := range m.Attrs {
					if v, ok := n.Attr(a.Name); !ok || v != a.Data {
						t.Fatalf("%s: hierarchy %q node %d: attr %s lost", name, h.Name, i, a.Name)
					}
				}
			}
		}
		if gotRuns, wantRuns := h.IndexRuns(), h.RebuildIndexRuns(); !reflect.DeepEqual(gotRuns, wantRuns) {
			t.Fatalf("%s: hierarchy %q: recovered index diverged from rebuild", name, h.Name)
		}
	}
}

// burstUpdate is the j-th update of a crash burst on one document (i
// numbers the burst, for fresh names). The mix covers renames in the
// structure, physical and damage hierarchies, same-length text
// replacements of the last word — whose length is lastWord — and one
// structural insert, so replay runs both the in-place and the copying
// path of a private working version. A replacement — which copies every
// hierarchy the lineage does not own yet — opens each run of three, the
// snapshot interval of the suite, so most replayed tails reach the
// in-place path.
func burstUpdate(i, j, lastWord int) string {
	switch j % 8 {
	case 0, 3, 6:
		return fmt.Sprintf(`replace value of node (//w)[last()]/text() with "%s"`, strings.Repeat(string(rune('a'+i%26)), lastWord))
	case 2:
		return fmt.Sprintf(`rename node (//line)[1] as "l%d"`, i)
	case 4:
		return fmt.Sprintf(`insert node ins%d after (//w)[1]`, i)
	case 5:
		return fmt.Sprintf(`rename node (//dmg)[1] as "d%d"`, i)
	default:
		return fmt.Sprintf(`rename node (//w)[1] as "u%d"`, i)
	}
}

// lastWordLen returns the byte length of the document's last <w>.
func lastWordLen(t *testing.T, d *core.Document) int {
	t.Helper()
	h := d.HierarchyByName("structure")
	for i := len(h.Nodes) - 1; i >= 0; i-- {
		if n := h.Nodes[i]; n.Kind == dom.Element && n.Name == "w" {
			return n.End - n.Start
		}
	}
	t.Fatal("document has no <w>")
	return 0
}

// TestCrashAtEverySyscall is the crash-simulation suite of the durable
// write path: for every syscall boundary k reached during an update
// burst, and for both fault modes (clean error, torn short write), it
// injects a failure at operation k, powers the filesystem off, crashes
// with a varying amount of surviving unsynced tail, reopens, and
// asserts (a) recovery itself never fails, (b) no acknowledged commit
// is lost, (c) at most the one in-flight unacknowledged commit may
// additionally survive, (d) every recovered document is field- and
// index-identical to the corresponding pre-crash in-memory
// version, and (e) a live update after recovery leaves the recovered
// version untouched: replay's private working versions were published.
func TestCrashAtEverySyscall(t *testing.T) {
	const (
		nDocs = 2
		burst = 16
		words = 25
	)
	// The burst's update sources, shared by the shadow chain and every
	// crashing run.
	lastWord := make([]int, nDocs)
	for i := range lastWord {
		lastWord[i] = lastWordLen(t, genDoc(t, uint64(i+1), words))
	}
	srcs := make([]string, burst)
	for i := range srcs {
		srcs[i] = burstUpdate(i, i/nDocs, lastWord[i%nDocs])
	}
	for _, short := range []bool{false, true} {
		mode := "error"
		if short {
			mode = "short-write"
		}
		// Shadow chain: the same updates applied through a fault-free
		// memory-only collection give the expected version at every
		// revision. Apply is a pure function of (document, source), so
		// the chains are directly comparable.
		shadow := New(Options{})
		versions := map[string][]*core.Document{}
		for i := 0; i < nDocs; i++ {
			name := fmt.Sprintf("doc%02d", i)
			d := genDoc(t, uint64(i+1), words)
			if _, err := shadow.Put(name, d); err != nil {
				t.Fatal(err)
			}
			versions[name] = []*core.Document{d}
		}
		for i := 0; i < burst; i++ {
			name := fmt.Sprintf("doc%02d", i%nDocs)
			nd, _, err := shadow.Update(name, srcs[i])
			if err != nil {
				t.Fatalf("shadow update %d: %v", i, err)
			}
			versions[name] = append(versions[name], nd)
		}

		inPlace := 0 // replayed records that copied no hierarchy, over all k
		for k := 1; ; k++ {
			fs := wal.NewCrashFS()
			opts := Options{
				Workers: 1, FS: fs,
				SnapshotEvery: 3, // snapshot + compact often, to put those paths in the blast radius
			}
			c, err := Open(t.TempDir(), opts)
			if err != nil {
				t.Fatalf("[%s k=%d] open: %v", mode, k, err)
			}
			dir := c.Dir()
			for i := 0; i < nDocs; i++ {
				if _, err := c.Put(fmt.Sprintf("doc%02d", i), versions[fmt.Sprintf("doc%02d", i)][0]); err != nil {
					t.Fatalf("[%s k=%d] put: %v", mode, k, err)
				}
			}

			fs.FailAt(k, short)
			acked := map[string]int{}
			attempted := map[string]int{}
			for i := 0; i < burst; i++ {
				name := fmt.Sprintf("doc%02d", i%nDocs)
				attempted[name]++
				if _, _, err := c.Update(name, srcs[i]); err != nil {
					break
				}
				acked[name]++
				attempted[name] = acked[name]
			}
			opsUsed := fs.OpCount()
			fs.Kill()
			c.Close() // best effort on a dead filesystem

			fs.Crash(k % 3) // vary the surviving torn-tail bytes
			c2, err := Open(dir, Options{Workers: 1, FS: fs, SnapshotEvery: 3})
			if err != nil {
				t.Fatalf("[%s k=%d] recovery failed: %v", mode, k, err)
			}
			inPlace += c2.Recovery().ReplayedInPlace
			for i := 0; i < nDocs; i++ {
				name := fmt.Sprintf("doc%02d", i)
				d, ok := c2.Get(name)
				if !ok {
					t.Fatalf("[%s k=%d] %s lost", mode, k, name)
				}
				rev := int(d.Rev)
				if rev < acked[name] || rev > attempted[name] {
					t.Fatalf("[%s k=%d] %s recovered at rev %d, acked %d, attempted %d (stats %+v)",
						mode, k, name, rev, acked[name], attempted[name], c2.Recovery())
				}
				label := fmt.Sprintf("[%s k=%d] %s", mode, k, name)
				requireDocsEqual(t, label, d, versions[name][rev])
				// Both primitives are layout-keeping, so a recovered
				// version still carrying its replay lineage would be
				// edited in place here.
				live := fmt.Sprintf(`rename node (//w)[1] as "live", replace value of node (//w)[last()]/text() with "%s"`,
					strings.Repeat("z", lastWord[i]))
				if _, _, err := c2.Update(name, live); err != nil {
					t.Fatalf("%s: live update after recovery: %v", label, err)
				}
				requireDocsEqual(t, label+" after a live update", d, versions[name][rev])
			}
			c2.Close()

			if opsUsed < k {
				// The whole burst (and everything after it) completed
				// without reaching operation k: every syscall boundary
				// has been exercised.
				break
			}
			if k > 2000 {
				t.Fatalf("[%s] failpoint sweep did not terminate", mode)
			}
		}
		if inPlace == 0 {
			t.Fatalf("[%s] no replayed record ran in place", mode)
		}
		t.Logf("[%s] %d replayed records ran in place", mode, inPlace)
	}
}

// TestConcurrentDurableUpdates races committers against the real
// filesystem: group commit must batch multiple acknowledged updates
// into fewer fsyncs, keep a totally ordered log, and lose nothing
// across reopen. Run with -race.
func TestConcurrentDurableUpdates(t *testing.T) {
	const (
		goroutines = 8
		perG       = 4
	)
	dir := t.TempDir()
	c, err := Open(dir, Options{FlushWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	last := make([]*core.Document, goroutines)
	for g := 0; g < goroutines; g++ {
		if _, err := c.Put(fmt.Sprintf("doc%02d", g), genDoc(t, uint64(g+1), 40)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("doc%02d", g)
			for i := 0; i < perG; i++ {
				nd, _, err := c.Update(name, fmt.Sprintf(`rename node (//w)[1] as "g%d_%d"`, g, i))
				if err != nil {
					errs[g] = err
					return
				}
				last[g] = nd
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	st := c.WALStats()
	if st.Appends != goroutines*perG {
		t.Fatalf("appends = %d, want %d", st.Appends, goroutines*perG)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("syncs = %d for %d acks: group commit did not batch", st.Syncs, st.Appends)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The log on disk is totally ordered (Scan rejects non-increasing
	// sequence numbers) and complete.
	recs, torn, err := wal.Load(wal.OS, filepath.Join(dir, "wal.log"))
	if err != nil || torn != 0 {
		t.Fatalf("log after close: %v, torn %d", err, torn)
	}
	if len(recs) != goroutines*perG {
		t.Fatalf("log holds %d records, want %d", len(recs), goroutines*perG)
	}

	c2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	if got := c2.Recovery().Replayed; got != goroutines*perG {
		t.Fatalf("replayed %d records, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		name := fmt.Sprintf("doc%02d", g)
		d, ok := c2.Get(name)
		if !ok {
			t.Fatalf("%s lost", name)
		}
		requireDocsEqual(t, name, d, last[g])
	}
}

// TestDeleteDurability exercises the tombstone path: a deletion whose
// image removal is interrupted must stay deleted after recovery, and a
// document re-created after a deletion must survive it.
func TestDeleteDurability(t *testing.T) {
	fs := wal.NewCrashFS()
	opts := Options{Workers: 1, FS: fs, SnapshotEvery: -1} // no background snapshots: op counts stay deterministic
	c, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := c.Dir()
	d0 := genDoc(t, 1, 30)
	for i, name := range []string{"gone", "kept", "reborn"} {
		if _, err := c.Put(name, genDoc(t, uint64(i+1), 30)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Update("gone", `rename node (//w)[1] as "zz"`); err != nil {
		t.Fatal(err)
	}
	// Delete "gone", failing the image removal (op 1 = log write, op 2 =
	// log sync, op 3 = remove): the tombstone is durable, the stale
	// image survives — recovery must honor the tombstone.
	fs.FailAt(3, false)
	if err := c.Delete("gone"); err == nil {
		t.Fatal("Delete succeeded despite injected remove failure")
	}
	// Delete and re-create "reborn": the later image outranks the
	// tombstone.
	if err := c.Delete("reborn"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("reborn", d0); err != nil {
		t.Fatal(err)
	}
	fs.Kill()
	c.Close()
	fs.Crash(0)

	c2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer c2.Close()
	if _, ok := c2.Get("gone"); ok {
		t.Fatal("tombstoned document resurrected")
	}
	if _, ok := c2.Get("kept"); !ok {
		t.Fatal("unrelated document lost")
	}
	d, ok := c2.Get("reborn")
	if !ok {
		t.Fatal("re-created document lost")
	}
	requireDocsEqual(t, "reborn", d, d0)
	if c2.Recovery().Tombstones != 2 {
		t.Fatalf("recovery stats %+v: want 2 tombstones", c2.Recovery())
	}
	// Recovery's checkpoint removed the stale image.
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "gone"+imageExt {
			t.Fatal("stale image of tombstoned document survived recovery")
		}
	}
}
