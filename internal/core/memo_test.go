package core_test

import (
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/dom"
)

// TestMemoBounds checks the memo's ordinal bound: an answer larger than
// the bound is refused, and storing past it evicts the least recently
// used answers until the held ordinals fit again.
func TestMemoBounds(t *testing.T) {
	var m core.Memo
	key := func(op int) core.MemoKey { return core.MemoKey{Src: "q", Sym: int32(op)} }
	run := func(n int) [][]int32 { return [][]int32{make([]int32, n)} }
	m.Put(key(0), run(core.MemoMaxOrdinals+1))
	if _, ok := m.Get(key(0)); ok || m.Stats().Ordinals != 0 {
		t.Fatal("an answer over the ordinal bound was stored")
	}
	half := core.MemoMaxOrdinals / 2
	m.Put(key(1), run(half))
	m.Put(key(2), run(half))
	m.Get(key(1)) // key 2 is now the least recently used
	m.Put(key(3), run(1))
	st := m.Stats()
	if st.Entries != 2 || st.Ordinals != half+1 {
		t.Fatalf("after overflowing the ordinal bound: %+v, want 2 entries and %d ordinals", st, half+1)
	}
	for op, want := range map[int]bool{0: false, 1: true, 2: false, 3: true} {
		if _, ok := m.Get(key(op)); ok != want {
			t.Errorf("answer %d stored = %v, want %v", op, ok, want)
		}
	}
	// Re-storing a key replaces its answer without counting it twice.
	m.Put(key(3), run(2))
	if st := m.Stats(); st.Ordinals != half+2 {
		t.Errorf("after replacing an answer: %d ordinals, want %d", st.Ordinals, half+2)
	}
}

// TestMemoOnlyOnPublishedVersions checks which documents keep a memo:
// published versions do, one each; overlays and private working
// versions do not.
func TestMemoOnlyOnPublishedVersions(t *testing.T) {
	d := corpus.MustBoethius()
	if d.Memo() == nil || d.Memo() != d.Memo() {
		t.Fatal("a published document has no memo of its own")
	}
	p := d.Private()
	if p.Memo() != nil {
		t.Error("a private working version has a memo")
	}
	if pub := p.Publish(); pub.Memo() == nil || pub.Memo() == d.Memo() {
		t.Error("a published copy does not have a memo of its own")
	}
	top := dom.NewElement("extra")
	top.Start, top.End = 0, len(d.Text)
	overlay, err := d.AddHierarchy("extra", top, true)
	if err != nil {
		t.Fatal(err)
	}
	if overlay.Memo() != nil {
		t.Error("an overlay has a memo")
	}
}
