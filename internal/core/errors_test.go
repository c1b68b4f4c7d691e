package core

import (
	"errors"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

func TestFailedFuture(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	f := e.FailedFuture(errBoom)
	if !f.Ready() {
		t.Fatal("failed future must be ready")
	}
	if !errors.Is(f.Err(), errBoom) {
		t.Errorf("Err = %v", f.Err())
	}
	ran := false
	child := f.Then(func() { ran = true })
	if ran {
		t.Error("Then callback must be skipped on a failed future")
	}
	if !child.Ready() || !errors.Is(child.Err(), errBoom) {
		t.Errorf("Then must propagate the error, got %v", child.Err())
	}

	fv := FailedFutureV[int](e, errBoom)
	if !fv.Ready() {
		t.Fatal("failed value future must be ready")
	}
	if v, err := fv.WaitErr(); v != 0 || !errors.Is(err, errBoom) {
		t.Errorf("WaitErr = %v, %v", v, err)
	}
}

func TestFutureFailViaHandle(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	f, h := e.NewOpFuture()
	h.Fail(errBoom)
	if !f.Ready() {
		t.Fatal("failed future not ready")
	}
	if err := f.WaitErr(); !errors.Is(err, errBoom) {
		t.Errorf("WaitErr = %v", err)
	}
}

func TestCompleteAckedRoutesErrors(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	okRes, okAck := asyncOp(e, OpFuture())
	ok := okRes.Op
	okAck(nil)
	if !ok.Ready() || ok.Err() != nil {
		t.Errorf("successful ack: ready=%v err=%v", ok.Ready(), ok.Err())
	}

	// Two fragments: the first fails the operation, the second straggles.
	var badAck func(error)
	bad := e.Initiate(OpDesc{Kind: OpRMA, Frags: 2, Inject: func(_ func(ctx any), done func(error)) { badAck = done }},
		[]Cx{OpFuture()}).Op
	badAck(errBoom)
	if !bad.Ready() || !errors.Is(bad.Err(), errBoom) {
		t.Errorf("failed ack: ready=%v err=%v", bad.Ready(), bad.Err())
	}
	// A straggling acknowledgment after failure (e.g. the reply outracing a
	// deadline expiry by a poll) must be absorbed, not double-complete.
	badAck(nil)
	if !errors.Is(bad.Err(), errBoom) {
		t.Errorf("late ack overwrote the failure: %v", bad.Err())
	}
}

func TestPromiseFulfillError(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	p := NewPromise(e)
	p.Require(2)
	f := p.Finalize()
	p.FulfillError(errBoom)
	if f.Ready() {
		t.Fatal("promise must keep waiting for its other operations after a failure")
	}
	if !errors.Is(p.Err(), errBoom) {
		t.Errorf("Err before drain = %v", p.Err())
	}
	p.Fulfill(1)
	if !f.Ready() {
		t.Fatal("promise future must ready once the count drains")
	}
	if !errors.Is(f.Err(), errBoom) {
		t.Errorf("drained promise future lost the error: %v", f.Err())
	}

	// First error wins.
	p2 := NewPromise(e)
	p2.Require(2)
	p2.FulfillError(errBoom)
	p2.FulfillError(errors.New("second"))
	if !errors.Is(p2.Finalize().Err(), errBoom) {
		t.Errorf("first error must win, got %v", p2.Err())
	}
}

func TestWhenAllShortCircuitsOnError(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	a, ah := e.NewOpFuture()
	b, _ := e.NewOpFuture()
	conj := e.WhenAll(a, b)
	if conj.Ready() {
		t.Fatal("conjunction ready before inputs")
	}
	ah.Fail(errBoom)
	if !conj.Ready() {
		t.Fatal("conjunction must short-circuit on the first input failure")
	}
	if !errors.Is(conj.Err(), errBoom) {
		t.Errorf("conjunction error = %v", conj.Err())
	}

	// A conjunction over an already-failed input short-circuits at build.
	conj2 := e.WhenAll(e.FailedFuture(errBoom), b)
	if !conj2.Ready() || !errors.Is(conj2.Err(), errBoom) {
		t.Errorf("prebuilt failure not short-circuited: ready=%v err=%v",
			conj2.Ready(), conj2.Err())
	}
}

func TestDeadlineExpiresUnackedOp(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	res := e.Initiate(OpDesc{
		Kind:   OpRMA,
		Inject: func(_ func(ctx any), _ func(error)) {}, // ack never arrives
	}, []Cx{OpFuture(), OpDeadline(time.Millisecond)})
	if res.Op.Ready() {
		t.Fatal("op ready before deadline")
	}
	time.Sleep(2 * time.Millisecond)
	e.Progress()
	if !res.Op.Ready() {
		t.Fatal("deadline sweep did not fire")
	}
	if err := res.Op.Err(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("Err = %v, want ErrDeadlineExceeded", err)
	}
	if e.Stats.DeadlinesArmed != 1 || e.Stats.DeadlinesExpired != 1 || e.Stats.OpsFailed != 1 {
		t.Errorf("stats armed=%d expired=%d failed=%d",
			e.Stats.DeadlinesArmed, e.Stats.DeadlinesExpired, e.Stats.OpsFailed)
	}
	ops := e.OpStats()
	if got := ops.Of(OpRMA, PhaseFailed); got != 1 {
		t.Errorf("PhaseFailed = %d", got)
	}
}

func TestDeadlineDroppedWhenAckedInTime(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	var ack func(error)
	res := e.Initiate(OpDesc{
		Kind:   OpRMA,
		Inject: func(_ func(ctx any), done func(error)) { ack = done },
	}, []Cx{OpFuture(), OpDeadline(time.Millisecond)})
	ack(nil)
	if !res.Op.Ready() || res.Op.Err() != nil {
		t.Fatalf("acked op: ready=%v err=%v", res.Op.Ready(), res.Op.Err())
	}
	time.Sleep(2 * time.Millisecond)
	e.Progress()
	if e.Stats.DeadlinesExpired != 0 {
		t.Errorf("deadline fired after completion: expired=%d", e.Stats.DeadlinesExpired)
	}
}

func TestDeadlineOnValueFuture(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	f := InitiateV(e, OpDescV[int]{
		Kind:     OpAtomic,
		Deadline: time.Millisecond,
		Inject:   func(_ *int, _ func(error)) {}, // value never arrives
	})
	v, err := f.WaitErr()
	if v != 0 || !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("WaitErr = %v, %v", v, err)
	}
}

func TestFailedInjectFailsValueFuture(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	f := InitiateV(e, OpDescV[int]{
		Kind:   OpAtomic,
		Inject: func(_ *int, done func(error)) { done(errBoom) },
	})
	if _, err := f.WaitErr(); !errors.Is(err, errBoom) {
		t.Errorf("WaitErr = %v", err)
	}
	if e.Stats.OpsFailed != 1 {
		t.Errorf("OpsFailed = %d", e.Stats.OpsFailed)
	}
}
