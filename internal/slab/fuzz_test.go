package slab

import (
	"encoding/binary"
	"errors"
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

// splitSections re-reads a trusted image's table of contents into the
// encoder's section form, so a fuzz harness can swap one payload and
// re-lay the image with repaired checksums.
func splitSections(img []byte) []section {
	n := int(binary.LittleEndian.Uint32(img[28:]))
	secs := make([]section, n)
	for i := range secs {
		e := img[headerLen+tocEntrLen*i:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		secs[i] = section{
			kind: binary.LittleEndian.Uint32(e[0:]),
			hier: binary.LittleEndian.Uint32(e[4:]),
			data: img[off : off+length],
		}
	}
	return secs
}

// FuzzSynopsisSection aims hostile bytes at the synopsis decoder
// specifically: the fuzzer mutates one synopsis payload of a valid
// image and the harness re-lays the image with correct section and
// header checksums, so parseSynopsis — not the CRC — is the validation
// under test. Hostile bytes must fail with the coded corruption error,
// never a panic; accepted bytes must serve statistics and re-encode.
func FuzzSynopsisSection(f *testing.F) {
	base, err := Encode(corpus.MustBoethius(), 1)
	if err != nil {
		f.Fatal(err)
	}
	rev := binary.LittleEndian.Uint64(base[8:])
	nHiers := binary.LittleEndian.Uint32(base[24:])
	secs := splitSections(base)
	synIdx := -1
	for i, s := range secs {
		if s.kind == kindSynopsis {
			synIdx = i
			break
		}
	}
	if synIdx < 0 {
		f.Fatal("fresh image carries no synopsis section")
	}
	orig := secs[synIdx].data
	f.Add(append([]byte(nil), orig...))
	f.Add(append([]byte(nil), orig[:len(orig)/2]...))
	f.Add([]byte{})
	for _, off := range []int{0, 4, 8, 12, 16, 20, len(orig) - 4} {
		bad := append([]byte(nil), orig...)
		bad[off] ^= 0xFF
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, sec []byte) {
		mut := make([]section, len(secs))
		copy(mut, secs)
		mut[synIdx].data = sec
		s, err := Open(layoutImage(rev, 1, nHiers, mut))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-corrupt error from Open: %v", err)
			}
			return
		}
		d := s.Document()
		d.Materialize()
		for _, h := range d.Hiers {
			syn := h.Synopsis()
			syn.Totals()
			_ = syn.Summary()
		}
		if _, err := Encode(d, s.SnapSeq()); err != nil {
			t.Fatalf("re-encoding an opened document: %v", err)
		}
	})
}
