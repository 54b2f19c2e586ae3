package probe

import "unsafe"

// Arena carves typed slices out of one flat backing allocation so that a
// design's parallel arrays (tag lines, metadata, data-store maps) land
// on adjacent cache lines instead of wherever the allocator scattered
// them. It is a locality optimization only: if a request does not fit in
// the remaining capacity the arena falls back to an ordinary standalone
// allocation, so sizing the arena wrong can never corrupt anything.
//
// Slices carved from an arena alias its backing array and are valid for
// the arena's lifetime; the arena never frees or reuses space.
type Arena struct {
	buf      []byte
	off      uintptr
	overflow int
}

// NewArena returns an arena with `size` bytes of flat capacity.
func NewArena(size int) *Arena {
	if size < 0 {
		size = 0
	}
	return &Arena{buf: make([]byte, size)}
}

// Overflows reports how many Alloc calls fell back to standalone
// allocations because the arena was full. Zero means every array shares
// the flat backing.
func (a *Arena) Overflows() int { return a.overflow }

// Size is the worst-case arena footprint of an Alloc[T](a, n) call,
// including alignment padding. Sum these to size NewArena.
func Size[T any](n int) int {
	var zero T
	return int(unsafe.Sizeof(zero))*n + int(unsafe.Alignof(zero)) - 1
}

// Alloc carves a zeroed []T of length n from the arena, falling back to
// make([]T, n) when the arena is exhausted.
func Alloc[T any](a *Arena, n int) []T {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]T, n)
	}
	var zero T
	align := unsafe.Alignof(zero)
	off := (a.off + align - 1) &^ (align - 1)
	need := uintptr(n) * unsafe.Sizeof(zero)
	if off+need > uintptr(len(a.buf)) {
		a.overflow++
		return make([]T, n)
	}
	a.off = off + need
	return unsafe.Slice((*T)(unsafe.Pointer(&a.buf[off])), n)
}
