package slab

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// Encode freezes a document version into one slab image. The document
// is materialized first (a frozen document re-encodes fine), and the
// structural name indexes are built if they have not been yet — the
// snapshot is precisely where that one-time cost belongs, so every
// future open skips it.
func Encode(d *core.Document, snapSeq uint64) ([]byte, error) {
	d.Materialize()
	if uint64(len(d.Text)) >= 1<<32 {
		return nil, fmt.Errorf("slab: base text of %d bytes exceeds the u32 span limit", len(d.Text))
	}

	// Symbol table: the document's interned name table occupies symbols
	// 1..K verbatim (so a reopened document keeps identical symbols);
	// auxiliary strings the slab needs — hierarchy names, attribute
	// values, comment/PI content — are appended after K on first use.
	names := d.NameTable()
	numDoc := len(names)
	syms := make(map[string]uint32, len(names)+16)
	for i, s := range names {
		syms[s] = uint32(i + 1)
	}
	auxSym := func(s string) uint32 {
		if v, ok := syms[s]; ok {
			return v
		}
		names = append(names, s)
		v := uint32(len(names))
		syms[s] = v
		return v
	}
	docSym := func(what, s string) (uint32, error) {
		if v, ok := syms[s]; ok && v <= uint32(numDoc) {
			return v, nil
		}
		return 0, fmt.Errorf("slab: %s %q is missing from the document name table", what, s)
	}

	rootSym, err := docSym("root name", d.Root.Name)
	if err != nil {
		return nil, err
	}
	// Attribute names are usually interned document names, but SetAttr
	// after construction can add attributes whose names never were —
	// those ride in the auxiliary region and reopen with NameSym 0,
	// matching the un-interned state name tests fall back to strings on.
	rootAttrs := make([]uint32, 0, 2*len(d.Root.Attrs))
	for _, a := range d.Root.Attrs {
		rootAttrs = append(rootAttrs, auxSym(a.Name), auxSym(a.Data))
	}

	type hierCols struct {
		nameSym  uint32
		kinds    []byte
		nameSyms []uint32
		dataSyms []uint32
		starts   []uint32
		ends     []uint32
		lasts    []uint32
		attrIdx  []uint32
		attrs    []uint32
		runSyms  []uint32
		runOrds  [][]int32
	}
	hiers := make([]hierCols, len(d.Hiers))
	for hi, h := range d.Hiers {
		n := len(h.Nodes)
		if n >= 1<<31 {
			return nil, fmt.Errorf("slab: hierarchy %q has %d nodes, exceeding the i32 ordinal limit", h.Name, n)
		}
		hc := &hiers[hi]
		hc.nameSym = auxSym(h.Name)
		hc.kinds = make([]byte, n)
		hc.nameSyms = make([]uint32, n)
		hc.dataSyms = make([]uint32, n)
		hc.starts = make([]uint32, n)
		hc.ends = make([]uint32, n)
		hc.lasts = make([]uint32, n)
		hc.attrIdx = make([]uint32, n+1)
		for i, nd := range h.Nodes {
			hc.kinds[i] = byte(nd.Kind)
			hc.lasts[i] = uint32(nd.Last)
			hc.starts[i] = uint32(nd.Start)
			hc.ends[i] = uint32(nd.End)
			switch nd.Kind {
			case dom.Element:
				ns, err := docSym("element name", nd.Name)
				if err != nil {
					return nil, err
				}
				hc.nameSyms[i] = ns
				for _, a := range nd.Attrs {
					hc.attrs = append(hc.attrs, auxSym(a.Name), auxSym(a.Data))
				}
			case dom.Text:
				// Spans only; the content is a slice of S.
			case dom.Comment, dom.ProcInst:
				hc.nameSyms[i] = auxSym(nd.Name)
				hc.dataSyms[i] = auxSym(nd.Data)
			default:
				return nil, fmt.Errorf("slab: cannot encode %s node in hierarchy %q", nd.Kind, h.Name)
			}
			hc.attrIdx[i+1] = uint32(len(hc.attrs) / 2)
		}
		// Persisted name index, directory sorted by symbol. Empty runs
		// (every instance deleted by updates) are dropped: they carry no
		// information and would differ from a fresh rebuild.
		runs := h.IndexRuns()
		for sym, run := range runs {
			if len(run) > 0 {
				hc.runSyms = append(hc.runSyms, uint32(sym))
			}
		}
		sort.Slice(hc.runSyms, func(a, b int) bool { return hc.runSyms[a] < hc.runSyms[b] })
		hc.runOrds = make([][]int32, len(hc.runSyms))
		for i, sym := range hc.runSyms {
			hc.runOrds[i] = runs[int32(sym)]
		}
	}

	// ---- assemble the sections in canonical order ------------------------
	var sections []section
	add := func(kind, hier uint32, data []byte) {
		sections = append(sections, section{kind: kind, hier: hier, data: data})
	}

	// symtab
	blobLen := 0
	for _, s := range names {
		blobLen += len(s)
	}
	st := make([]byte, 8+4*(len(names)+1)+blobLen)
	binary.LittleEndian.PutUint32(st[0:], uint32(len(names)))
	binary.LittleEndian.PutUint32(st[4:], uint32(numDoc))
	off := 8
	pos := 0
	for i := 0; i <= len(names); i++ {
		binary.LittleEndian.PutUint32(st[off+4*i:], uint32(pos))
		if i < len(names) {
			pos += len(names[i])
		}
	}
	blob := st[8+4*(len(names)+1):]
	pos = 0
	for _, s := range names {
		copy(blob[pos:], s)
		pos += len(s)
	}
	add(kindSymtab, docLevel, st)

	add(kindText, docLevel, []byte(d.Text))

	bs := make([]byte, 8*len(d.Bounds))
	for i, b := range d.Bounds {
		binary.LittleEndian.PutUint64(bs[8*i:], uint64(b))
	}
	add(kindBounds, docLevel, bs)

	ri := make([]byte, 8+4*len(rootAttrs))
	binary.LittleEndian.PutUint32(ri[0:], rootSym)
	binary.LittleEndian.PutUint32(ri[4:], uint32(len(rootAttrs)/2))
	putU32s(ri[8:], rootAttrs)
	add(kindRootInfo, docLevel, ri)

	hd := make([]byte, 16*len(hiers))
	for i := range hiers {
		hc := &hiers[i]
		binary.LittleEndian.PutUint32(hd[16*i+0:], hc.nameSym)
		binary.LittleEndian.PutUint32(hd[16*i+4:], uint32(len(hc.kinds)))
		binary.LittleEndian.PutUint32(hd[16*i+8:], uint32(len(hc.attrs)/2))
		binary.LittleEndian.PutUint32(hd[16*i+12:], uint32(len(hc.runSyms)))
	}
	add(kindHierDir, docLevel, hd)

	for hi := range hiers {
		hc := &hiers[hi]
		n := len(hc.kinds)
		nodes := make([]byte, nodesSectionLen(n))
		cur := copy(nodes, hc.kinds)
		cur = pad8(cur)
		for _, col := range [][]uint32{hc.nameSyms, hc.dataSyms, hc.starts, hc.ends, hc.lasts, hc.attrIdx} {
			putU32s(nodes[cur:], col)
			cur = pad8(cur + 4*len(col))
		}
		add(kindNodes, uint32(hi), nodes)

		at := make([]byte, 4*len(hc.attrs))
		putU32s(at, hc.attrs)
		add(kindAttrs, uint32(hi), at)

		total := 0
		for _, run := range hc.runOrds {
			total += len(run)
		}
		rn := make([]byte, 8*len(hc.runSyms)+4*total)
		for i, sym := range hc.runSyms {
			binary.LittleEndian.PutUint32(rn[8*i:], sym)
			binary.LittleEndian.PutUint32(rn[8*i+4:], uint32(len(hc.runOrds[i])))
		}
		cur = 8 * len(hc.runSyms)
		for _, run := range hc.runOrds {
			for _, ord := range run {
				binary.LittleEndian.PutUint32(rn[cur:], uint32(ord))
				cur += 4
			}
		}
		add(kindRuns, uint32(hi), rn)
	}

	return layoutImage(d.Rev, snapSeq, uint32(len(d.Hiers)), sections), nil
}

// section is one payload of the image, with its table-of-contents
// identity.
type section struct {
	kind, hier uint32
	data       []byte
}

// layoutImage lays out the header, section table and payloads, filling
// in every offset and checksum.
func layoutImage(rev, snapSeq uint64, nHiers uint32, sections []section) []byte {
	tocLen := tocEntrLen * len(sections)
	cur := headerLen + tocLen // 8-aligned: 48 + 32k
	offsets := make([]int, len(sections))
	for i, s := range sections {
		offsets[i] = cur
		cur = pad8(cur + len(s.data))
	}
	total := cur
	buf := make([]byte, total)
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[8:], rev)
	binary.LittleEndian.PutUint64(buf[16:], snapSeq)
	binary.LittleEndian.PutUint32(buf[24:], nHiers)
	binary.LittleEndian.PutUint32(buf[28:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(buf[32:], uint64(total))
	for i, s := range sections {
		e := buf[headerLen+tocEntrLen*i:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint32(e[4:], s.hier)
		binary.LittleEndian.PutUint64(e[8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(s.data, crcTable))
		copy(buf[offsets[i]:], s.data)
	}
	sum := crc32.Checksum(buf[:40], crcTable)
	sum = crc32.Update(sum, crcTable, buf[headerLen:headerLen+tocLen])
	binary.LittleEndian.PutUint32(buf[40:], sum)
	return buf
}

func putU32s(dst []byte, vals []uint32) {
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], v)
	}
}

// nodesSectionLen is the byte length of a nodes section for n nodes:
// the kind column plus six u32 columns, each padded to 8 bytes.
func nodesSectionLen(n int) int {
	return pad8(n) + 5*pad8(4*n) + pad8(4*(n+1))
}
