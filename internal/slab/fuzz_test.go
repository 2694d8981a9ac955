package slab

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mhxquery/internal/corpus"
)

// FuzzSlabDecode feeds arbitrary bytes to the slab opener. The
// contract under test is the one lazy materialization depends on:
// hostile or damaged images either fail with the coded corruption
// error or open into a document whose every accessor — including full
// lazy materialization and the leaf layer — works without panics or
// out-of-range reads.
func FuzzSlabDecode(f *testing.F) {
	if blob, err := Encode(corpus.MustBoethius(), 7); err == nil {
		f.Add(blob)
		// Truncations and small mutations of a valid image reach deep
		// validation branches immediately.
		f.Add(blob[:len(blob)/2])
		f.Add(blob[:headerLen])
		for _, off := range []int{0, 8, 24, 32, 40, headerLen, headerLen + 8, len(blob) - 1} {
			bad := append([]byte(nil), blob...)
			bad[off] ^= 0xFF
			f.Add(bad)
		}
	}
	if d, err := corpus.Generate(corpus.Params{Seed: 11, Words: 12}).Document(); err == nil {
		if blob, err := Encode(d, 1); err == nil {
			f.Add(blob)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
	// Images with the retired synopsis section fuzz the skip path.
	for _, img := range retiredImages {
		if blob, err := os.ReadFile(filepath.Join("testdata", img.file)); err == nil {
			f.Add(blob)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt error from Open: %v", err)
			}
			return
		}
		// A validated image must serve everything without panicking.
		d := s.Document()
		d.Materialize()
		_ = d.Stats()
		for _, h := range d.Hiers {
			for sym := range h.IndexRuns() {
				_ = h.NameRun(sym)
			}
		}
		for _, l := range d.Leaves {
			_ = d.LeafParents(l)
		}
		if _, err := Encode(d, s.SnapSeq()); err != nil {
			t.Fatalf("re-encoding an opened document: %v", err)
		}
	})
}
