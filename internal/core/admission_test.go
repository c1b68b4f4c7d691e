package core

import (
	"errors"
	"testing"
	"time"
)

var errRefused = errors.New("refused")

// refuser installs an admitter that refuses peer 7 and records what it was
// asked, so tests can assert the peer and deadline budget plumbing.
func refuser(e *Engine) (*int, *time.Duration) {
	var peer int
	var budget time.Duration
	e.SetAdmitter(func(p int, maxWait time.Duration) error {
		peer, budget = p, maxWait
		if p == 7 {
			return errRefused
		}
		return nil
	})
	return &peer, &budget
}

// TestAdmissionRefusalFailsFuture: a refused cx-ful operation never enters
// the substrate — its future resolves eagerly with the admission error and
// the failure is booked.
func TestAdmissionRefusalFailsFuture(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	peer, budget := refuser(e)
	injected := false
	res := e.Initiate(OpDesc{
		Kind: OpRMA, Peer: 7, Admit: true,
		Inject: func(_ func(ctx any), _ func(error)) { injected = true },
	}, []Cx{OpFuture(), OpDeadline(30 * time.Millisecond)})
	if injected {
		t.Fatal("refused operation reached the substrate")
	}
	if !res.Op.Ready() || !errors.Is(res.Op.Err(), errRefused) {
		t.Fatalf("refusal: ready=%v err=%v", res.Op.Ready(), res.Op.Err())
	}
	if *peer != 7 {
		t.Errorf("admitter asked about peer %d", *peer)
	}
	if *budget != 30*time.Millisecond {
		t.Errorf("admitter given budget %v, want the op deadline", *budget)
	}
	if e.Stats.OpsFailed != 1 {
		t.Errorf("OpsFailed = %d", e.Stats.OpsFailed)
	}
	ops := e.OpStats()
	if got := ops.Of(OpRMA, PhaseFailed); got != 1 {
		t.Errorf("PhaseFailed = %d", got)
	}
}

// TestAdmissionRefusalRoutesAllCompletionKinds: promise and LPC sinks
// receive the refusal just like futures do.
func TestAdmissionRefusalRoutesAllCompletionKinds(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	refuser(e)
	p := NewPromise(e)
	ran := false
	e.Initiate(OpDesc{
		Kind: OpRMA, Peer: 7, Admit: true,
		Inject: func(_ func(ctx any), _ func(error)) {},
	}, []Cx{OpPromise(p), OpLPC(func() { ran = true })})
	f := p.Finalize()
	e.Progress() // run the LPC
	if !f.Ready() || !errors.Is(f.Err(), errRefused) {
		t.Errorf("promise after refusal: ready=%v err=%v", f.Ready(), f.Err())
	}
	if !ran {
		t.Error("LPC completion not delivered on refusal")
	}
}

// TestAdmissionRefusalValueForms: the value-future and value-promise
// pipelines deliver the refusal through their own channels.
func TestAdmissionRefusalValueForms(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	refuser(e)
	f := InitiateV(e, OpDescV[int]{
		Kind: OpAtomic, Peer: 7, Admit: true,
		Inject: func(_ *int, _ func(error)) { t.Error("refused op injected") },
	})
	if v, err := f.WaitErr(); v != 0 || !errors.Is(err, errRefused) {
		t.Errorf("value future after refusal: %v, %v", v, err)
	}

	pv := NewPromiseV[int](e)
	InitiateV(e, OpDescV[int]{
		Kind: OpAtomic, Peer: 7, Admit: true,
		Inject:  func(_ *int, _ func(error)) { t.Error("refused op injected") },
		Promise: pv,
	})
	if v, err := pv.Finalize().WaitErr(); v != 0 || !errors.Is(err, errRefused) {
		t.Errorf("value promise after refusal: %v, %v", v, err)
	}
	if e.Stats.OpsFailed != 2 {
		t.Errorf("OpsFailed = %d", e.Stats.OpsFailed)
	}
}

// TestAdmissionFireAndForgetDrop: a refused fire-and-forget operation has
// no completion sink; it is booked as failed and dropped, like a send
// toward a down peer.
func TestAdmissionFireAndForgetDrop(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	refuser(e)
	injected := false
	e.Initiate(OpDesc{
		Kind: OpRPC, Peer: 7, Admit: true,
		Inject: func(_ func(ctx any), _ func(error)) { injected = true },
	}, nil)
	if injected {
		t.Error("refused fire-and-forget reached the substrate")
	}
	if e.Stats.OpsFailed != 1 {
		t.Errorf("OpsFailed = %d", e.Stats.OpsFailed)
	}
}

// TestAdmissionSkipped: local descriptors, Admit=false, admitted peers,
// and engines without an admitter all bypass the check.
func TestAdmissionSkipped(t *testing.T) {
	e := testEngine(Eager2021_3_6)
	refuser(e)
	// Local: the admitter must not even be consulted for peer 7.
	res := e.Initiate(OpDesc{
		Kind: OpRMA, Local: true, Peer: 7, Admit: true, Move: func() {},
	}, []Cx{OpFuture()})
	if !res.Op.Ready() || res.Op.Err() != nil {
		t.Errorf("local op refused: err=%v", res.Op.Err())
	}
	// Admit unset: zero-value descriptors stay inert even toward peer 7.
	var acked bool
	e.Initiate(OpDesc{
		Kind: OpRMA, Peer: 7,
		Inject: func(_ func(ctx any), done func(error)) { done(nil); acked = true },
	}, []Cx{OpFuture()})
	if !acked {
		t.Error("unadmitted descriptor was gated")
	}
	// Admitted peer passes through.
	ok := InitiateV(e, OpDescV[int]{
		Kind: OpAtomic, Peer: 3, Admit: true,
		Inject: func(slot *int, done func(error)) { *slot = 9; done(nil) },
	})
	if v, err := ok.WaitErr(); v != 9 || err != nil {
		t.Errorf("admitted op: %v, %v", v, err)
	}
	// No admitter installed.
	e.SetAdmitter(nil)
	none := InitiateV(e, OpDescV[int]{
		Kind: OpAtomic, Peer: 7, Admit: true,
		Inject: func(slot *int, done func(error)) { *slot = 1; done(nil) },
	})
	if v, err := none.WaitErr(); v != 1 || err != nil {
		t.Errorf("no-admitter op: %v, %v", v, err)
	}
}
