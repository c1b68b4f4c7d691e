package gasnet

import (
	"bytes"
	"sync"
	"testing"
)

func TestSegmentAllocAlignment(t *testing.T) {
	s := NewSegment(1 << 12)
	var offs []uint32
	for _, n := range []int{1, 8, 3, 16, 24, 7} {
		off, err := s.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if off%8 != 0 {
			t.Errorf("Alloc(%d) misaligned at %d", n, off)
		}
		offs = append(offs, off)
	}
	// Offsets strictly increasing (bump allocator).
	for i := 1; i < len(offs); i++ {
		if offs[i] <= offs[i-1] {
			t.Errorf("offsets not increasing: %v", offs)
		}
	}
}

func TestSegmentExhaustion(t *testing.T) {
	s := NewSegment(64)
	if _, err := s.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Alloc(8); err == nil {
		t.Error("expected exhaustion error")
	}
	s.Reset()
	if _, err := s.Alloc(64); err != nil {
		t.Errorf("Reset did not reclaim: %v", err)
	}
}

func TestSegmentNegativeAlloc(t *testing.T) {
	s := NewSegment(64)
	if _, err := s.Alloc(-1); err == nil {
		t.Error("negative alloc accepted")
	}
}

func TestSegmentZeroAllocTakesSpace(t *testing.T) {
	s := NewSegment(64)
	a, _ := s.Alloc(0)
	b, _ := s.Alloc(0)
	if a == b {
		t.Error("zero-size allocations must be distinct")
	}
}

// TestCopyInOutRoundTrip drives the copy seam over every alignment and
// every length around the word and cache-line edges, plus one 64 KiB
// transfer, inside a poisoned segment: the bytes must round-trip and
// nothing either side of [off, off+n) may change.
func TestCopyInOutRoundTrip(t *testing.T) {
	type shape struct{ off, n int }
	shapes := []shape{{5, 64 << 10}}
	for off := 0; off <= 15; off++ {
		for n := 0; n <= 130; n++ {
			shapes = append(shapes, shape{off, n})
		}
	}
	const guard = 64
	for _, sh := range shapes {
		s := NewSegment(guard + sh.off + sh.n + guard)
		all := s.BytesAt(0, s.Size())
		for i := range all {
			all[i] = 0xA5
		}
		src := make([]byte, sh.n)
		for i := range src {
			src[i] = byte(i*7 + 1)
		}
		at := uint32(guard + sh.off)
		s.CopyIn(at, src)
		for i, b := range all {
			inside := i >= int(at) && i < int(at)+sh.n
			if !inside && b != 0xA5 {
				t.Fatalf("CopyIn(off %d, len %d) wrote byte %d outside its range", sh.off, sh.n, i)
			}
		}
		// dst carries its own guards so an over-long CopyOut shows too.
		dst := bytes.Repeat([]byte{0x5A}, guard+sh.n+guard)
		s.CopyOut(at, dst[guard:guard+sh.n])
		if !bytes.Equal(dst[guard:guard+sh.n], src) {
			t.Fatalf("round trip (off %d, len %d) returned different bytes", sh.off, sh.n)
		}
		for i, b := range dst {
			if (i < guard || i >= guard+sh.n) && b != 0x5A {
				t.Fatalf("CopyOut(off %d, len %d) wrote byte %d outside dst", sh.off, sh.n, i-guard)
			}
		}
	}
}

func TestWordAtAndBytesAgree(t *testing.T) {
	s := NewSegment(64)
	*s.WordAt(8) = 0x0123456789abcdef
	b := s.BytesAt(8, 8)
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i]) // little-endian readback
	}
	if v != 0x0123456789abcdef {
		t.Errorf("byte view disagrees: %#x", v)
	}
}

func TestWordAtMisalignedPanics(t *testing.T) {
	s := NewSegment(64)
	defer func() {
		if recover() == nil {
			t.Error("misaligned WordAt should panic")
		}
	}()
	s.WordAt(4)
}

func TestRangeCheckPanics(t *testing.T) {
	s := NewSegment(16)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access should panic")
		}
	}()
	s.BytesAt(8, 16)
}

// TestCopyInWordAtomicity: concurrent aligned word writes through CopyIn
// never tear — readers see one of the written values. One aligned 8-byte
// word is the ONLY atomicity CopyIn/CopyOut promise: every other shape is
// a plain copy, and racing on it is the caller's data race.
func TestCopyInWordAtomicity(t *testing.T) {
	s := NewSegment(8)
	vals := [][]byte{
		{0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11, 0x11},
		{0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22, 0x22},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.CopyIn(0, vals[w])
				}
			}
		}(w)
	}
	bad := false
	for i := 0; i < 10000; i++ {
		out := make([]byte, 8)
		s.CopyOut(0, out)
		if out[0] == 0 {
			continue // initial zero
		}
		for _, b := range out[1:] {
			if b != out[0] {
				bad = true
			}
		}
	}
	close(stop)
	wg.Wait()
	if bad {
		t.Error("torn word observed")
	}
}

func TestFreesCounter(t *testing.T) {
	s := NewSegment(64)
	off, _ := s.Alloc(8)
	s.Free(off)
	if s.Frees() != 1 {
		t.Errorf("Frees = %d", s.Frees())
	}
}

func TestViewAsAndValueBytes(t *testing.T) {
	s := NewSegment(64)
	off, _ := s.Alloc(8)
	p := ViewAs[uint64](s, off)
	*p = 0xdeadbeef
	var out uint64
	s.CopyOut(off, ValueBytes(&out))
	if out != 0xdeadbeef {
		t.Errorf("ViewAs write not visible: %#x", out)
	}
}

func TestViewSlice(t *testing.T) {
	s := NewSegment(64)
	off, _ := s.Alloc(32)
	sl := ViewSlice[uint32](s, off, 8)
	for i := range sl {
		sl[i] = uint32(i * i)
	}
	sl2 := ViewSlice[uint32](s, off, 8)
	for i := range sl2 {
		if sl2[i] != uint32(i*i) {
			t.Errorf("slice view mismatch at %d", i)
		}
	}
	if ViewSlice[uint32](s, off, 0) != nil {
		t.Error("zero-length view should be nil")
	}
}

func TestSliceBytesEmpty(t *testing.T) {
	if SliceBytes[uint64](nil) != nil {
		t.Error("nil slice should give nil bytes")
	}
	b := SliceBytes([]uint32{1, 2})
	if len(b) != 8 {
		t.Errorf("len = %d", len(b))
	}
}

func TestSizeOf(t *testing.T) {
	if SizeOf[uint64]() != 8 || SizeOf[uint32]() != 4 || SizeOf[[3]int64]() != 24 {
		t.Error("SizeOf wrong")
	}
}

func TestMisalignedViewPanics(t *testing.T) {
	s := NewSegment(64)
	defer func() {
		if recover() == nil {
			t.Error("misaligned ViewAs should panic")
		}
	}()
	ViewAs[uint64](s, 4)
}
