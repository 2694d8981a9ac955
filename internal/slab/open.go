package slab

import (
	"encoding/binary"
	"hash/crc32"

	"mhxquery/internal/core"
	"mhxquery/internal/dom"
)

// Slab is a validated, opened image. All accessors serve zero-copy
// views of the underlying bytes where the host allows; the dom.Node
// hierarchies are materialized lazily by the core.Document returned
// from Document.
type Slab struct {
	rev     uint64
	snapSeq uint64

	// names is the symbol table (copied out of the image: names become
	// map keys and long-lived node fields, and they are tiny next to
	// the node columns). names[:numDocNames] is the document's interned
	// name table.
	names       []string
	numDocNames int

	text        string // aliases the image
	bounds      []int  // aliases the image on 64-bit little-endian hosts
	rootNameSym uint32
	rootAttrs   []uint32 // (name, value) symbol pairs
	hiers       []slabHier
}

type slabHier struct {
	nameSym        uint32
	nNodes, nAttrs int
	kinds          []byte
	nameSyms       []uint32
	dataSyms       []uint32
	starts         []uint32
	ends           []uint32
	lasts          []uint32
	attrIdx        []uint32
	attrs          []uint32          // (name, value) symbol pairs
	runs           map[int32][]int32 // aliased ordinal runs
}

// Rev returns the document revision recorded in the image.
func (s *Slab) Rev() uint64 { return s.rev }

// SnapSeq returns the WAL sequence number the snapshot covers.
func (s *Slab) SnapSeq() uint64 { return s.snapSeq }

func (s *Slab) symStr(sym uint32) string {
	if sym == 0 {
		return ""
	}
	return s.names[sym-1]
}

// Open validates data as a slab image and returns the frozen view.
// Every checksum and structural invariant is verified here — the
// bytes are untrusted (they were read off disk) — so the lazy
// materialization that follows can never fail or read out of range.
// Malformed input yields an error wrapping ErrCorrupt, never a panic.
//
// data is the caller's private heap copy of the image and must never
// be modified afterwards: text slices, the boundary array and index
// runs alias it directly, which also keeps it alive for as long as the
// returned Slab or any document opened from it is reachable.
func Open(data []byte) (*Slab, error) {
	if len(data) < headerLen || string(data[:8]) != magic {
		return nil, corrupt("bad magic")
	}
	s := &Slab{
		rev:     binary.LittleEndian.Uint64(data[8:]),
		snapSeq: binary.LittleEndian.Uint64(data[16:]),
	}
	nHiers := binary.LittleEndian.Uint32(data[24:])
	nSections := binary.LittleEndian.Uint32(data[28:])
	totalLen := binary.LittleEndian.Uint64(data[32:])
	if totalLen != uint64(len(data)) {
		return nil, corrupt("image length %d does not match header %d", len(data), totalLen)
	}
	if nHiers >= dom.LeafHier {
		return nil, corrupt("implausible hierarchy count %d", nHiers)
	}
	// Current images carry three sections per hierarchy (stride 3).
	// Images written while the planner estimated from path synopses
	// carry a fourth (stride 4); they still open, and that section is
	// checksummed and skipped, never decoded.
	stride := uint32(3)
	switch nSections {
	case 5 + 3*nHiers:
	case 5 + 4*nHiers:
		stride = 4
	default:
		return nil, corrupt("section count %d does not match %d hierarchies", nSections, nHiers)
	}
	tocLen := tocEntrLen * int(nSections)
	if len(data) < headerLen+tocLen {
		return nil, corrupt("truncated section table")
	}
	if binary.LittleEndian.Uint32(data[44:]) != 0 {
		return nil, corrupt("nonzero header padding")
	}
	sum := crc32.Checksum(data[:40], crcTable)
	sum = crc32.Update(sum, crcTable, data[headerLen:headerLen+tocLen])
	if sum != binary.LittleEndian.Uint32(data[40:]) {
		return nil, corrupt("header checksum mismatch")
	}

	// Sections, in the canonical order the encoder writes.
	type want struct{ kind, hier uint32 }
	wants := []want{
		{kindSymtab, docLevel}, {kindText, docLevel}, {kindBounds, docLevel},
		{kindRootInfo, docLevel}, {kindHierDir, docLevel},
	}
	for hi := uint32(0); hi < nHiers; hi++ {
		wants = append(wants, want{kindNodes, hi}, want{kindAttrs, hi}, want{kindRuns, hi})
		if stride == 4 {
			wants = append(wants, want{kindRetiredSynopsis, hi})
		}
	}
	secs := make([][]byte, len(wants))
	prevEnd := uint64(headerLen + tocLen)
	for i, w := range wants {
		e := data[headerLen+tocEntrLen*i:]
		kind := binary.LittleEndian.Uint32(e[0:])
		hier := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if kind != w.kind || hier != w.hier {
			return nil, corrupt("section %d has kind %d/hier %d, want %d/%d", i, kind, hier, w.kind, w.hier)
		}
		if off%8 != 0 || off < prevEnd || length > totalLen || off > totalLen-length {
			return nil, corrupt("section %d span [%d,+%d) out of range", i, off, length)
		}
		// Alignment gaps are zero by format; checking them keeps every
		// byte of the image accounted for (CRCs cover the rest).
		if !allZero(data[prevEnd:off]) {
			return nil, corrupt("nonzero padding before section %d", i)
		}
		sec := data[off : off+length]
		if crc32.Checksum(sec, crcTable) != binary.LittleEndian.Uint32(e[24:]) {
			return nil, corrupt("section %d checksum mismatch", i)
		}
		secs[i] = sec
		prevEnd = off + length
	}
	if !allZero(data[prevEnd:]) {
		return nil, corrupt("nonzero trailing padding")
	}

	if err := s.parseSymtab(secs[0]); err != nil {
		return nil, err
	}
	s.text = byteString(secs[1])
	if uint64(len(s.text)) >= 1<<32 {
		return nil, corrupt("base text exceeds u32 span limit")
	}
	if err := s.parseBounds(secs[2]); err != nil {
		return nil, err
	}
	if err := s.parseRootInfo(secs[3]); err != nil {
		return nil, err
	}
	if err := s.parseHiers(secs[4], secs[5:], int(nHiers), int(stride)); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Slab) parseSymtab(b []byte) error {
	if len(b) < 8 {
		return corrupt("truncated symbol table")
	}
	nSyms := binary.LittleEndian.Uint32(b[0:])
	numDoc := binary.LittleEndian.Uint32(b[4:])
	if numDoc > nSyms || uint64(nSyms) > uint64(len(b))/4 {
		return corrupt("implausible symbol count %d (doc %d)", nSyms, numDoc)
	}
	offEnd := 8 + 4*(int(nSyms)+1)
	if len(b) < offEnd {
		return corrupt("truncated symbol offsets")
	}
	offs := u32view(b[8:offEnd])
	blob := b[offEnd:]
	if offs[0] != 0 || offs[nSyms] != uint32(len(blob)) {
		return corrupt("symbol blob bounds [%d,%d) do not cover %d bytes", offs[0], offs[nSyms], len(blob))
	}
	s.names = make([]string, nSyms)
	for i := uint32(0); i < nSyms; i++ {
		if offs[i] > offs[i+1] {
			return corrupt("symbol %d has descending offsets", i+1)
		}
		s.names[i] = string(blob[offs[i]:offs[i+1]])
	}
	// The first numDoc symbols reconstruct the document's name map; a
	// duplicate would silently drop a symbol.
	seen := make(map[string]bool, numDoc)
	for i := uint32(0); i < numDoc; i++ {
		if seen[s.names[i]] {
			return corrupt("duplicate document name %q", s.names[i])
		}
		seen[s.names[i]] = true
	}
	s.numDocNames = int(numDoc)
	return nil
}

func (s *Slab) parseBounds(b []byte) error {
	if len(b)%8 != 0 || len(b) == 0 {
		return corrupt("boundary array of %d bytes", len(b))
	}
	n := len(b) / 8
	prev := int64(-1)
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint64(b[8*i:])
		if v > uint64(len(s.text)) || int64(v) <= prev {
			return corrupt("boundary %d = %d out of order or range", i, v)
		}
		prev = int64(v)
	}
	if binary.LittleEndian.Uint64(b) != 0 || prev != int64(len(s.text)) {
		return corrupt("boundary array does not span the base text")
	}
	s.bounds = boundsView(b)
	return nil
}

func (s *Slab) parseRootInfo(b []byte) error {
	if len(b) < 8 {
		return corrupt("truncated root info")
	}
	s.rootNameSym = binary.LittleEndian.Uint32(b[0:])
	nAttrs := binary.LittleEndian.Uint32(b[4:])
	if s.rootNameSym < 1 || s.rootNameSym > uint32(s.numDocNames) {
		return corrupt("root name symbol %d out of range", s.rootNameSym)
	}
	if uint64(len(b)) != 8+8*uint64(nAttrs) {
		return corrupt("root info length %d does not match %d attributes", len(b), nAttrs)
	}
	s.rootAttrs = u32view(b[8:])
	return s.checkAttrPairs(s.rootAttrs, "root")
}

func (s *Slab) checkAttrPairs(pairs []uint32, where string) error {
	for i := 0; i+1 < len(pairs); i += 2 {
		// Attribute names may live in the auxiliary region (SetAttr after
		// construction adds names the document never interned).
		if pairs[i] < 1 || pairs[i] > uint32(len(s.names)) {
			return corrupt("%s attribute name symbol %d out of range", where, pairs[i])
		}
		if pairs[i+1] < 1 || pairs[i+1] > uint32(len(s.names)) {
			return corrupt("%s attribute value symbol %d out of range", where, pairs[i+1])
		}
	}
	return nil
}

func (s *Slab) parseHiers(dir []byte, secs [][]byte, nHiers, stride int) error {
	if len(dir) != 16*nHiers {
		return corrupt("hierarchy directory of %d bytes for %d hierarchies", len(dir), nHiers)
	}
	s.hiers = make([]slabHier, nHiers)
	seen := make(map[string]bool, nHiers)
	for hi := 0; hi < nHiers; hi++ {
		e := dir[16*hi:]
		sh := &s.hiers[hi]
		sh.nameSym = binary.LittleEndian.Uint32(e[0:])
		nNodes := binary.LittleEndian.Uint32(e[4:])
		nAttrs := binary.LittleEndian.Uint32(e[8:])
		nRuns := binary.LittleEndian.Uint32(e[12:])
		if sh.nameSym < 1 || sh.nameSym > uint32(len(s.names)) {
			return corrupt("hierarchy %d name symbol %d out of range", hi, sh.nameSym)
		}
		name := s.symStr(sh.nameSym)
		if name == "" || seen[name] {
			return corrupt("hierarchy %d name %q empty or duplicate", hi, name)
		}
		seen[name] = true
		if nNodes >= 1<<31 || nRuns > nNodes {
			return corrupt("hierarchy %q has implausible counts (%d nodes, %d runs)", name, nNodes, nRuns)
		}
		sh.nNodes, sh.nAttrs = int(nNodes), int(nAttrs)
		if err := s.parseNodes(sh, secs[stride*hi], name); err != nil {
			return err
		}
		if err := s.parseAttrs(sh, secs[stride*hi+1], name); err != nil {
			return err
		}
		if err := s.parseRuns(sh, secs[stride*hi+2], int(nRuns), name); err != nil {
			return err
		}
	}
	return nil
}

func (s *Slab) parseNodes(sh *slabHier, b []byte, name string) error {
	n := sh.nNodes
	if len(b) != nodesSectionLen(n) {
		return corrupt("hierarchy %q nodes section of %d bytes for %d nodes", name, len(b), n)
	}
	sh.kinds = b[:n]
	cur := pad8(n)
	cols := []*[]uint32{&sh.nameSyms, &sh.dataSyms, &sh.starts, &sh.ends, &sh.lasts, &sh.attrIdx}
	for i, col := range cols {
		w := n
		if i == len(cols)-1 {
			w = n + 1
		}
		*col = u32view(b[cur : cur+4*w])
		cur = pad8(cur + 4*w)
	}

	// One linear pass verifies every column invariant the lazy
	// materializer and the axis engine rely on: kinds, symbol ranges,
	// span bounds, preorder subtree nesting (via a stack of open
	// subtree ends) and the attribute prefix-sum.
	textLen := uint32(len(s.text))
	numDoc := uint32(s.numDocNames)
	nSyms := uint32(len(s.names))
	if sh.attrIdx[0] != 0 || sh.attrIdx[n] != uint32(sh.nAttrs) {
		return corrupt("hierarchy %q attribute prefix-sum does not cover %d attributes", name, sh.nAttrs)
	}
	var stack []uint32 // open subtree ends (Last of open elements)
	for i := 0; i < n; i++ {
		ui := uint32(i)
		for len(stack) > 0 && stack[len(stack)-1] < ui {
			stack = stack[:len(stack)-1]
		}
		last := sh.lasts[i]
		start, end := sh.starts[i], sh.ends[i]
		hasAttrs := sh.attrIdx[i+1] != sh.attrIdx[i]
		if sh.attrIdx[i+1] < sh.attrIdx[i] || sh.attrIdx[i+1] > uint32(sh.nAttrs) {
			return corrupt("hierarchy %q node %d has a non-monotonic attribute index", name, i)
		}
		switch dom.Kind(sh.kinds[i]) {
		case dom.Element:
			if sh.nameSyms[i] < 1 || sh.nameSyms[i] > numDoc || sh.dataSyms[i] != 0 {
				return corrupt("hierarchy %q element %d has symbol out of range", name, i)
			}
			if last < ui || last >= uint32(n) {
				return corrupt("hierarchy %q element %d subtree end %d out of range", name, i, last)
			}
			if len(stack) > 0 && last > stack[len(stack)-1] {
				return corrupt("hierarchy %q element %d subtree escapes its parent", name, i)
			}
			if start > end || end > textLen {
				return corrupt("hierarchy %q element %d span [%d,%d) out of range", name, i, start, end)
			}
			if last > ui {
				stack = append(stack, last)
			}
		case dom.Text:
			if sh.nameSyms[i] != 0 || sh.dataSyms[i] != 0 || last != ui || hasAttrs {
				return corrupt("hierarchy %q text node %d malformed", name, i)
			}
			if start > end || end > textLen {
				return corrupt("hierarchy %q text node %d span [%d,%d) out of range", name, i, start, end)
			}
		case dom.Comment, dom.ProcInst:
			if sh.nameSyms[i] < 1 || sh.nameSyms[i] > nSyms ||
				sh.dataSyms[i] < 1 || sh.dataSyms[i] > nSyms ||
				last != ui || start != end || end > textLen || hasAttrs {
				return corrupt("hierarchy %q comment/PI node %d malformed", name, i)
			}
		default:
			return corrupt("hierarchy %q node %d has kind %d", name, i, sh.kinds[i])
		}
	}
	return nil
}

func (s *Slab) parseAttrs(sh *slabHier, b []byte, name string) error {
	if uint64(len(b)) != 8*uint64(sh.nAttrs) {
		return corrupt("hierarchy %q attribute section of %d bytes for %d attributes", name, len(b), sh.nAttrs)
	}
	sh.attrs = u32view(b)
	return s.checkAttrPairs(sh.attrs, "hierarchy "+name)
}

func (s *Slab) parseRuns(sh *slabHier, b []byte, nRuns int, name string) error {
	if len(b) < 8*nRuns {
		return corrupt("hierarchy %q runs section truncated", name)
	}
	dir := u32view(b[:8*nRuns])
	total := 0
	for i := 0; i < nRuns; i++ {
		length := dir[2*i+1]
		if length > uint32(sh.nNodes) || total > sh.nNodes-int(length) {
			return corrupt("hierarchy %q index runs exceed the node count", name)
		}
		total += int(length)
	}
	if uint64(len(b)) != 8*uint64(nRuns)+4*uint64(total) {
		return corrupt("hierarchy %q runs section of %d bytes for %d ordinals", name, len(b), total)
	}
	ords := i32view(b[8*nRuns:])
	sh.runs = make(map[int32][]int32, nRuns)
	prevSym := uint32(0)
	pos := 0
	nElems := 0
	for i := 0; i < sh.nNodes; i++ {
		if dom.Kind(sh.kinds[i]) == dom.Element {
			nElems++
		}
	}
	for i := 0; i < nRuns; i++ {
		sym, length := dir[2*i], int(dir[2*i+1])
		if sym <= prevSym || sym > uint32(s.numDocNames) || length == 0 {
			return corrupt("hierarchy %q index run %d malformed", name, i)
		}
		prevSym = sym
		run := ords[pos : pos+length]
		pos += length
		prev := int32(-1)
		for _, ord := range run {
			if ord <= prev || ord >= int32(sh.nNodes) ||
				dom.Kind(sh.kinds[ord]) != dom.Element || sh.nameSyms[ord] != sym {
				return corrupt("hierarchy %q index run for symbol %d is inconsistent with the node columns", name, sym)
			}
			prev = ord
		}
		sh.runs[int32(sym)] = run
	}
	// Completeness: with per-entry consistency verified, covering every
	// element exactly once makes the persisted index equal to a fresh
	// rebuild — so skipping the rebuild can never change query results.
	if total != nElems {
		return corrupt("hierarchy %q index covers %d of %d elements", name, total, nElems)
	}
	return nil
}

// Document assembles a lazily materializing core.Document over the
// slab. The eager layers — base text, bounds, name table, ordinal
// layout, persisted index runs — alias the image; dom.Node storage is
// built per hierarchy on first structural access.
func (s *Slab) Document() *core.Document {
	f := core.FrozenDoc{
		Text:     s.text,
		Bounds:   s.bounds,
		Rev:      s.rev,
		Names:    s.names[:s.numDocNames],
		RootName: s.symStr(s.rootNameSym),
		Hiers:    make([]core.FrozenHier, len(s.hiers)),
	}
	for i := 0; i+1 < len(s.rootAttrs); i += 2 {
		f.RootAttrs = append(f.RootAttrs, [2]string{s.symStr(s.rootAttrs[i]), s.symStr(s.rootAttrs[i+1])})
	}
	for hi := range s.hiers {
		f.Hiers[hi] = core.FrozenHier{
			Name:     s.symStr(s.hiers[hi].nameSym),
			NumNodes: s.hiers[hi].nNodes,
			Runs:     s.hiers[hi].runs,
			Fill:     s.makeFill(hi),
		}
	}
	return core.NewFrozenDocument(f)
}
