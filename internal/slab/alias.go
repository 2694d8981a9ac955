package slab

import (
	"encoding/binary"
	"strconv"
	"unsafe"
)

// The zero-copy accessors below alias the raw image instead of copying
// it — that is the whole point of the slab layout. Aliasing is only
// safe (and only correct) when the host is little-endian and the
// backing bytes are sufficiently aligned; every helper falls back to a
// decoded copy otherwise, so the format works on any platform.
//
// Lifetime: images are ordinary heap byte slices, and the GC owns them
// through the aliases themselves — it tracks interior pointers from
// string and slice headers, so an image lives exactly as long as some
// document, string or slice handed to a query still points into it,
// and is reclaimed with the last of them.

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// byteString aliases b as a string without copying.
func byteString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// u32view returns b (a whole number of little-endian u32s) as a
// []uint32, aliasing without copying when the host allows.
func u32view(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

// i32view is u32view for []int32 (the name-index run representation).
func i32view(b []byte) []int32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// boundsView returns b (little-endian u64s, pre-validated to fit int)
// as []int, aliasing when int is 64 bits on a little-endian host.
func boundsView(b []byte) []int {
	n := len(b) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && strconv.IntSize == 64 && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
