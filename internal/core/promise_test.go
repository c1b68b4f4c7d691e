package core

import (
	"testing"
	"testing/quick"
)

func TestPromiseCounterSemantics(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	p.Require(3)
	f := p.Finalize()
	if f.Ready() {
		t.Fatal("ready with 3 outstanding")
	}
	p.Fulfill(1)
	p.Fulfill(1)
	if f.Ready() {
		t.Fatal("ready with 1 outstanding")
	}
	p.Fulfill(1)
	if !f.Ready() {
		t.Fatal("not ready after all fulfilled")
	}
}

func TestPromiseFinalizeIdempotent(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	f1 := p.Finalize()
	f2 := p.Finalize()
	if f1.c != f2.c {
		t.Error("Finalize not idempotent")
	}
	if !f1.Ready() {
		t.Error("empty promise should be ready at finalize")
	}
}

func TestPromiseRequireAfterFinalizePanics(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	p.Finalize()
	defer func() {
		if recover() == nil {
			t.Error("Require after Finalize should panic")
		}
	}()
	p.Require(1)
}

func TestPromiseNegativeArgsPanic(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	for _, fn := range []func(){
		func() { p.Require(-1) },
		func() { p.Fulfill(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative arg should panic")
				}
			}()
			fn()
		}()
	}
}

// TestPromiseCountingProperty: for any interleaving of requires and
// fulfills summing to equal totals, the finalized future is ready exactly
// when the counts balance.
func TestPromiseCountingProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		e := testEngine(Eager2021_3_6)
		p := NewPromise(e)
		outstanding := 0
		for _, op := range ops {
			n := int(op%3) + 1
			if op%2 == 0 {
				p.Require(n)
				outstanding += n
			} else {
				if outstanding < n {
					continue
				}
				p.Fulfill(n)
				outstanding -= n
			}
		}
		fut := p.Finalize()
		if outstanding > 0 {
			if fut.Ready() {
				return false
			}
			p.Fulfill(outstanding)
		}
		return fut.Ready()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPromiseVSingleValue(t *testing.T) {
	e := testEngine(Defer2021_3_6)
	p := NewPromiseV[int](e)
	p.Bind()
	f := p.Finalize()
	if f.Ready() {
		t.Fatal("ready before delivery")
	}
	p.Deliver(9)
	if !f.Ready() || f.Value() != 9 {
		t.Fatalf("bad delivery: ready=%v", f.Ready())
	}
}

func TestPromiseVDeliverDeferred(t *testing.T) {
	e := testEngine(Defer2021_3_6)
	p := NewPromiseV[int](e)
	p.Bind()
	f := p.Finalize()
	p.DeliverDeferred(7)
	if f.Ready() {
		t.Fatal("deferred delivery visible before progress")
	}
	if got := f.Wait(); got != 7 {
		t.Errorf("Wait = %d", got)
	}
}

func TestPromiseVDoubleBindPanics(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromiseV[int](e)
	p.Bind()
	defer func() {
		if recover() == nil {
			t.Error("second Bind should panic (value promise tracks one op)")
		}
	}()
	p.Bind()
}

// TestEagerPromiseElision asserts the paper's §III-A claim: under eager
// delivery of a synchronously-completed op, the registered promise is
// never modified.
func TestEagerPromiseElision(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	before := p.Pending()
	syncOp(e, OpPromise(p))
	if p.Pending() != before {
		t.Errorf("eager delivery modified promise: %d -> %d", before, p.Pending())
	}
	if e.Stats.DeferQPushes != 0 {
		t.Error("eager delivery touched the deferred queue")
	}
	if !p.Finalize().Ready() {
		t.Error("promise not ready at finalize")
	}
}

// TestDeferPromiseCounting asserts the deferred path: Require at
// initiation, fulfill at progress.
func TestDeferPromiseCounting(t *testing.T) {
	e := testEngine(Defer2021_3_6)
	p := NewPromise(e)
	syncOp(e, OpPromise(p))
	if p.Pending() != 2 { // finalize dep + op dep
		t.Errorf("Pending = %d, want 2", p.Pending())
	}
	f := p.Finalize()
	if f.Ready() {
		t.Fatal("ready before progress")
	}
	e.Progress()
	if !f.Ready() {
		t.Fatal("not ready after progress")
	}
	if e.Stats.DeferQPushes != 1 {
		t.Errorf("DeferQPushes = %d", e.Stats.DeferQPushes)
	}
}
