package core

import "testing"

// TestIdleCallsParker: Idle hands every idle step to the installed
// parker; the wait policy (yield or park) is the substrate's, pinned by
// gasnet's TestIdleSpinThenPark.
func TestIdleCallsParker(t *testing.T) {
	e := NewEngine(0, Eager2021_3_6)
	parks := 0
	e.SetParker(func() { parks++ })
	for i := 0; i < 3; i++ {
		e.Idle()
	}
	if parks != 3 {
		t.Fatalf("parks = %d after 3 idle steps, want 3", parks)
	}
}

// TestIdleWithoutParkerYields: no parker installed means Idle must not
// panic (it falls back to a scheduler yield).
func TestIdleWithoutParkerYields(t *testing.T) {
	e := NewEngine(0, Defer2021_3_6)
	for i := 0; i < 256; i++ {
		e.Idle()
	}
}

// TestProgressReentrancyGuard: a nested Progress (from inside a callback)
// polls but leaves queue draining to the outer call, and the outer call
// still drains everything.
func TestProgressReentrancyGuard(t *testing.T) {
	e := NewEngine(0, Defer2021_3_6)
	polls := 0
	e.SetPoller(func() int { polls++; return 0 })

	var nestedSaw int
	f, h := e.NewOpFuture()
	f.Then(func() {
		nestedSaw = e.Progress() // nested: poll only
	})
	h.Defer()
	e.Progress()
	if !f.Ready() {
		t.Fatal("outer progress did not drain")
	}
	if nestedSaw != 0 {
		t.Errorf("nested progress drained queues: %d", nestedSaw)
	}
	if polls < 2 {
		t.Errorf("polls = %d, nested call should still poll", polls)
	}
}
