package gasnet

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Segment is one rank's shared-memory segment: a word-aligned arena that
// co-located ranks may access directly and remote ranks reach through the
// AM protocol. All allocation is 8-byte aligned, so any offset handed out
// by Alloc is valid for atomic word access.
//
// The segment synchronises nothing beyond single words: an aligned
// 8-byte access through CopyIn/CopyOut/WordAt is atomic, anything larger
// is plain memory whose ordering is the accessor's business (see CopyIn).
//
// This file is the only place in the repository that uses package unsafe;
// every typed view of segment memory is produced here.
type Segment struct {
	mem   []uint64 // backing storage; aligned for 8-byte atomics
	bytes []byte   // byte view of mem
	mu    sync.Mutex
	next  int // bump-allocation cursor, in bytes
	frees int // count of Free calls (allocation is bump-only; see Free)
}

// NewSegment allocates a segment of the given size in bytes (rounded up to
// a multiple of 8).
func NewSegment(sizeBytes int) *Segment {
	words := (sizeBytes + 7) / 8
	if words < 1 {
		words = 1
	}
	mem := make([]uint64, words)
	return &Segment{
		mem:   mem,
		bytes: unsafe.Slice((*byte)(unsafe.Pointer(&mem[0])), words*8),
	}
}

// Size reports the segment capacity in bytes.
func (s *Segment) Size() int { return len(s.bytes) }

// Used reports the number of bytes currently allocated.
func (s *Segment) Used() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Alloc reserves n bytes (rounded up to a multiple of 8) and returns the
// byte offset of the reservation. It returns an error if the segment is
// exhausted.
func (s *Segment) Alloc(n int) (uint32, error) {
	if n < 0 {
		return 0, fmt.Errorf("gasnet: negative allocation %d", n)
	}
	n = (n + 7) &^ 7
	if n == 0 {
		n = 8
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next+n > len(s.bytes) {
		return 0, fmt.Errorf("gasnet: segment exhausted: %d bytes requested, %d free",
			n, len(s.bytes)-s.next)
	}
	off := uint32(s.next)
	s.next += n
	return off, nil
}

// Free records the release of an allocation. The arena is bump-allocated
// (matching the common PGAS pattern of setup-time allocation), so Free does
// not recycle memory; it exists so that callers express intent and tests can
// assert balanced alloc/free discipline.
func (s *Segment) Free(uint32) {
	s.mu.Lock()
	s.frees++
	s.mu.Unlock()
}

// Frees reports the number of Free calls observed.
func (s *Segment) Frees() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frees
}

// Reset discards all allocations, returning the arena to empty. Intended
// for benchmark harnesses that reuse a Domain across iterations. The caller
// must guarantee no outstanding references into the segment.
func (s *Segment) Reset() {
	s.mu.Lock()
	s.next = 0
	s.frees = 0
	s.mu.Unlock()
}

// ValidRange reports whether [off, off+n) is contained in the segment —
// the non-panicking bounds check for wire-supplied addresses. checkRange
// panics because its callers are trusted local code; handlers validating
// untrusted wire input call this first and refuse (counted, nacked) on
// failure. uint64 arguments so callers can pass raw wire words without a
// truncating conversion aliasing an in-bounds offset.
func (s *Segment) ValidRange(off, n uint64) bool {
	end := off + n
	return end >= off && end <= uint64(len(s.bytes))
}

// checkRange panics if [off, off+n) is not contained in the segment.
func (s *Segment) checkRange(off uint32, n int) {
	if int(off)+n > len(s.bytes) {
		panic(fmt.Sprintf("gasnet: segment access [%d,%d) out of range (size %d)",
			off, int(off)+n, len(s.bytes)))
	}
}

// BytesAt returns a byte view of [off, off+n). The view aliases segment
// memory.
func (s *Segment) BytesAt(off uint32, n int) []byte {
	s.checkRange(off, n)
	return s.bytes[off : int(off)+n : int(off)+n]
}

// WordAt returns the address of the 8-byte word at off, which must be
// 8-byte aligned. The returned pointer is valid for sync/atomic access.
func (s *Segment) WordAt(off uint32) *uint64 {
	if off%8 != 0 {
		panic(fmt.Sprintf("gasnet: misaligned word access at offset %d", off))
	}
	s.checkRange(off, 8)
	return &s.mem[off/8]
}

// PointerAt returns an unsafe pointer to the byte at off, for typed views
// constructed by the runtime layer. n is the extent that will be accessed
// through the pointer and is range-checked here.
func (s *Segment) PointerAt(off uint32, n int) unsafe.Pointer {
	s.checkRange(off, n)
	return unsafe.Pointer(&s.bytes[off])
}

// CopyIn copies src into the segment at off. One aligned 8-byte word is
// a single atomic store (native byte order, so it writes the bytes a copy
// would) — the only atomicity the segment promises, and what word puts,
// flag idioms and AMOs on the same word rely on. Every other shape is a
// plain copy (runtime memmove) ordered by nothing: the caller's
// completion edge (barrier, AM delivery, a later word-atomic flag store)
// is what publishes it, and a conflicting unsynchronised access is the
// user's data race, as in UPC++.
func (s *Segment) CopyIn(off uint32, src []byte) {
	s.checkRange(off, len(src))
	if off%8 == 0 && len(src) == 8 {
		atomic.StoreUint64(&s.mem[off/8], binary.NativeEndian.Uint64(src))
		return
	}
	copy(s.bytes[off:], src)
}

// CopyOut copies [off, off+len(dst)) from the segment into dst: one
// atomic load for an aligned 8-byte word, a plain copy otherwise
// (mirroring CopyIn).
func (s *Segment) CopyOut(off uint32, dst []byte) {
	s.checkRange(off, len(dst))
	if off%8 == 0 && len(dst) == 8 {
		binary.NativeEndian.PutUint64(dst, atomic.LoadUint64(&s.mem[off/8]))
		return
	}
	copy(dst, s.bytes[off:int(off)+len(dst)])
}
