// Package slab implements the frozen columnar document layout behind
// store format v3: one contiguous, offset-based binary image of a
// document version that a process reads into memory and serves without
// reparsing.
//
// Layout. The image is little-endian throughout and starts with a
// 48-byte header:
//
//	off 0   magic "MHXSLAB1"
//	off 8   u64 document revision
//	off 16  u64 WAL sequence the snapshot covers
//	off 24  u32 hierarchy count
//	off 28  u32 section count (= 5 + 3×hierarchies; older images with a
//	        fourth, retired section per hierarchy carry 5 + 4×hierarchies
//	        and still open)
//	off 32  u64 total image length
//	off 40  u32 CRC32C over header bytes [0,40) and the section table
//	off 44  u32 zero
//
// followed by the section table (32 bytes per section: kind, owning
// hierarchy or ^0 for document level, u64 offset, u64 length, CRC32C,
// zero pad) and the sections themselves. Every section starts 8-byte
// aligned; gaps are zero. Sections appear in a fixed canonical order:
//
//	symtab    interned symbol table: u32 count, u32 document-name count
//	          K, (count+1) ascending u32 byte offsets, string blob.
//	          Symbols 1..K are the document's interned name table
//	          (core.Document.NameTable) in symbol order; symbols above K
//	          hold auxiliary strings (hierarchy names, attribute values,
//	          comment/PI content) referenced only by the slab.
//	text      the base text S, raw bytes — served as a zero-copy string.
//	bounds    the boundary array, u64 each — aliased as []int when the
//	          host allows.
//	rootinfo  u32 root-name symbol, u32 attribute count, then
//	          (name symbol, value symbol) u32 pairs.
//	hierdir   per hierarchy: u32 name symbol, u32 node count, u32
//	          attribute count, u32 index-run count.
//	then, per hierarchy:
//	nodes     fixed-width struct-of-arrays over the preorder node list:
//	          kind bytes, name symbols, data symbols, starts, ends,
//	          subtree lasts (u32 columns), and a (count+1) u32 attribute
//	          prefix-sum — each column 8-byte aligned within the section.
//	attrs     (name symbol, value symbol) u32 pairs, indexed by the
//	          nodes section's prefix-sum.
//	runs      the persisted structural name index: (symbol, length) u32
//	          directory sorted by symbol, then the concatenated
//	          ascending preorder ordinal runs, u32 each — aliased as
//	          []int32 and installed without any rebuild.
//	(kind 9)  retired: a per-hierarchy path synopsis that fed a
//	          cost-based planner since removed. Images that carry it
//	          still open; the reader checks its checksum and skips it.
//
// Open validates everything eagerly — checksums, offsets, column
// invariants (preorder nesting, span bounds, symbol ranges, index-run
// completeness) — precisely so the lazy dom.Node materialization that
// follows can be infallible: no error path threads through axis
// accessors, and no byte of a hostile image is ever dereferenced
// unchecked. Validation is a linear memcpy-speed scan of the image;
// what Open never does is allocate or link node trees, which is where
// the heap decoder's time and memory go.
package slab

import (
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	magic      = "MHXSLAB1"
	headerLen  = 48
	tocEntrLen = 32

	// docLevel marks a section not owned by any hierarchy.
	docLevel = ^uint32(0)

	kindSymtab   = 1
	kindText     = 2
	kindBounds   = 3
	kindRootInfo = 4
	kindHierDir  = 5
	kindNodes    = 6
	kindAttrs    = 7
	kindRuns     = 8

	// kindRetiredSynopsis is the fourth per-hierarchy section of older
	// images; Open skips it without decoding.
	kindRetiredSynopsis = 9
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt tags every malformed-image failure mode — bad magic,
// checksum mismatch, out-of-range offset, broken column invariant —
// under the same code the store layer uses for damaged images.
var ErrCorrupt = errors.New("MHXQ0201: corrupt document slab")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("slab: "+format+": %w", append(args, ErrCorrupt)...)
}

// pad8 rounds n up to the next multiple of 8.
func pad8(n int) int { return (n + 7) &^ 7 }

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
