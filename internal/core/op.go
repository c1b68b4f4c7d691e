package core

import "time"

// This file is the unified operation-lifecycle pipeline: one
// initiation→completion path for every operation family. A family
// describes one operation as an OpDesc (or OpDescV for value-producing
// forms) and hands it to Engine.Initiate / InitiateV; the pipeline drives
// data movement through conduit-agnostic callbacks and resolves every
// notification sink through Engine.resolve (completion.go), which makes
// the eager-vs-deferred decision in exactly one place (Engine.eager).
//
// Every phase transition is counted per operation family (OpStats) and
// optionally observed by a PhaseHook — the runtime's op-level
// observability. The counters are plain array increments and the hook is
// nil by default, so the instrumentation adds no allocation and no
// indirect call to the eager fast path.

// OpKind identifies an operation family in the unified pipeline.
type OpKind uint8

const (
	// OpRMA is contiguous one-sided RMA (Rput/Rget and the bulk forms).
	OpRMA OpKind = iota
	// OpAtomic is the remote atomic family (apply, fetch, fetch-into,
	// fetch-promise, in every atomic domain).
	OpAtomic
	// OpRPC is the remote-procedure family (closure RPC, wire RPC,
	// fire-and-forget).
	OpRPC
	// OpVIS is vector/indexed/strided RMA (multi-fragment operations).
	OpVIS
	// OpColl is the collective family (barrier, broadcast, exchange —
	// world and team).
	OpColl

	// NumOpKinds bounds the OpKind space.
	NumOpKinds
)

// String names the operation family.
func (k OpKind) String() string {
	switch k {
	case OpRMA:
		return "rma"
	case OpAtomic:
		return "atomic"
	case OpRPC:
		return "rpc"
	case OpVIS:
		return "vis"
	case OpColl:
		return "coll"
	default:
		return "op(?)"
	}
}

// Phase identifies one stage of an operation's lifecycle.
type Phase uint8

const (
	// PhaseInitiated counts every operation entering the pipeline.
	PhaseInitiated Phase = iota
	// PhaseEagerCompleted counts notifications delivered eagerly at
	// initiation (data movement completed synchronously). An operation
	// with no completion requests counts one eager completion for the
	// operation itself.
	PhaseEagerCompleted
	// PhaseDeferredQueued counts notifications routed through the
	// deferred-notification (or LPC) queue at initiation.
	PhaseDeferredQueued
	// PhaseWireAcked counts asynchronous operations whose completion was
	// fired by the substrate acknowledgment from inside the progress
	// engine (the off-node path; self-RPCs count here too, their
	// completion being likewise delivered by the progress engine).
	PhaseWireAcked
	// PhaseFailed counts operations whose notifications resolved with an
	// error instead of a value: deadline expiry, peer death, remote
	// handler panic. An operation books either wire-acked or failed, never
	// both.
	PhaseFailed

	// NumPhases bounds the Phase space.
	NumPhases
)

// String names the phase as in the design document's phase diagram.
func (p Phase) String() string {
	switch p {
	case PhaseInitiated:
		return "initiated"
	case PhaseEagerCompleted:
		return "eager-completed"
	case PhaseDeferredQueued:
		return "deferred-queued"
	case PhaseWireAcked:
		return "wire-acked"
	case PhaseFailed:
		return "failed"
	default:
		return "phase(?)"
	}
}

// OpStats is the per-family × per-phase counter matrix maintained by the
// pipeline. Index as stats[kind][phase].
type OpStats [NumOpKinds][NumPhases]int64

// Of returns the counter for one family and phase.
func (s *OpStats) Of(k OpKind, p Phase) int64 { return s[k][p] }

// Add accumulates o into s (aggregation across ranks).
func (s *OpStats) Add(o *OpStats) {
	for k := range s {
		for p := range s[k] {
			s[k][p] += o[k][p]
		}
	}
}

// PhaseHook observes pipeline phase transitions. Installed via
// Engine.SetPhaseHook; nil (the default) disables the callback entirely.
// The hook runs on the engine's goroutine and must not block.
//
// elapsedNanos is the time from the operation's initiation to this
// transition, when the pipeline can attribute one: completion phases
// (eager-completed, deferred-queued, wire-acked, failed) carry the
// initiation-to-now latency; the initiated phase itself reports zero.
// Timestamps are captured only while a hook is installed — the nil-hook
// pipeline reads no clock — so the first transitions after installing a
// hook may still report zero.
type PhaseHook func(k OpKind, p Phase, elapsedNanos int64)

// SetPhaseHook installs (or, with nil, removes) the per-phase
// instrumentation hook.
func (e *Engine) SetPhaseHook(fn PhaseHook) { e.hook = fn }

// OpStats returns a snapshot of the pipeline's per-family phase counters.
func (e *Engine) OpStats() OpStats { return e.ops }

// phase records one phase transition: a counter bump, plus the hook when
// one is installed, told the latency since t0 (an initiation timestamp
// from hookT0; zero reports zero elapsed). It inlines to the counter bump
// and one predictable branch: the clock is read only with a hook, in
// observe.
func (e *Engine) phase(k OpKind, p Phase, t0 int64) {
	e.ops[k][p]++
	if e.hook != nil {
		e.observe(k, p, t0)
	}
}

func (e *Engine) observe(k OpKind, p Phase, t0 int64) {
	var el int64
	if t0 > 0 {
		el = nanotime() - t0
	}
	e.hook(k, p, el)
}

// nanotime reads the wall clock. It is kept out of line so that its
// callers on the nil-hook path stay small enough to inline.
//
//go:noinline
func nanotime() int64 { return time.Now().UnixNano() }

// hookT0 captures an initiation timestamp for latency attribution — but
// only when a phase hook is installed. The nil-hook fast path pays one
// predictable branch and reads no clock, preserving the eager path's
// cost model.
func (e *Engine) hookT0() int64 {
	if e.hook == nil {
		return 0
	}
	return nanotime()
}

// OpDesc describes one value-less operation to the pipeline: which family
// it belongs to, whether its data movement can complete synchronously at
// initiation (the locality query's answer), and the data-movement
// callbacks — exactly one of which the pipeline invokes.
//
// The completion-request set is passed to Initiate separately rather than
// carried in the descriptor: escape analysis is not field-sensitive for
// structs, and the cx set's content genuinely escapes on the deferred
// path, so a Cxs field would drag every closure in the descriptor (and
// their by-reference captures) to the heap — one allocation per eager op.
// Keeping the descriptor closures-and-scalars-only keeps the eager fast
// path allocation-free.
type OpDesc struct {
	// Kind is the operation family (counter bucket, policy selector).
	Kind OpKind

	// Local reports that the target is directly addressable, so Move can
	// complete the data movement synchronously during Initiate. This is
	// the outcome of the caller's locality query (free under
	// ConstexprLocal).
	Local bool

	// Frags is the number of asynchronous substrate transfers a remote
	// operation fans out into (VIS operations move one fragment per
	// transfer). The pipeline fires completion after the last fragment's
	// acknowledgment. Zero is treated as one.
	Frags int

	// Move performs the synchronous data movement; invoked iff Local.
	Move func()

	// ShipRemote delivers the composed remote-completion action for a
	// co-located target (the action must still run on the target rank's
	// progress goroutine, so the runtime layer ships it as an active
	// message). Invoked iff Local and a remote completion was requested.
	ShipRemote func(rfn func(ctx any))

	// Inject launches the asynchronous data movement; invoked iff !Local.
	// rfn is the composed remote-completion action (nil if none), to be
	// delivered at the target after the data is applied. done must be
	// invoked once per fragment, on the initiating rank's goroutine from
	// inside the progress engine (the substrate acknowledgment path); a
	// non-nil error reports that the fragment will never complete (peer
	// unreachable, remote failure), resolving the operation's
	// notifications with that error.
	Inject func(rfn func(ctx any), done func(error))

	// Deadline, when positive, bounds the asynchronous operation's
	// completion time: if the substrate has not acknowledged within it,
	// the notifications resolve with ErrDeadlineExceeded. OpDeadline
	// completion requests compose with it (smallest bound wins).
	Deadline time.Duration

	// Peer is the target rank, consulted by the admission hook; meaningful
	// only when Admit is set (the zero value must stay inert — rank 0 is a
	// real rank, so a bare Peer field without the flag would make it the
	// accidental admission target of every descriptor that leaves it
	// unset).
	Peer int

	// Admit subjects this remote injection to the substrate's per-peer
	// credit admission (Engine.SetAdmitter): a refused operation resolves
	// its completions with the admission error (ErrBackpressure,
	// ErrPeerUnreachable) instead of entering the substrate. Ignored for
	// Local descriptors and when no admitter is installed. Both fields are
	// scalars so the descriptor's escape class — and the eager path's
	// zero-allocation guarantee — is unchanged.
	Admit bool
}

// Initiate runs one value-less operation through the unified pipeline and
// returns the futures its completion requests produced. cxs is the
// completion-request set; empty means the operation delivers no
// notifications (blocking collectives, fire-and-forget RPC).
//
// A synchronous (Local) operation resolves its sinks on the spot — eager
// requests immediately (zero allocation: the crux of the paper), deferred
// ones at the next progress call. An asynchronous one records its sinks on
// a recycled AsyncCompletion and launches the substrate transfer(s); the
// last acknowledgment resolves them from inside the progress engine.
//
// Initiate destructures the descriptor into the multi-parameter initiate;
// the wrapper is small enough to inline, and the split keeps the
// data-movement closures out of the descriptor's escape class (initiate
// only ever calls them), so the eager fast path allocates nothing.
func (e *Engine) Initiate(d OpDesc, cxs []Cx) Result {
	return e.initiate(d.Kind, d.Local, cxs, d.Frags, d.Deadline, d.Peer, d.Admit,
		d.Move, d.ShipRemote, d.Inject)
}

func (e *Engine) initiate(k OpKind, local bool, cxs []Cx, frags int, dl time.Duration,
	peer int, admit bool,
	move func(), ship func(rfn func(ctx any)), inject func(rfn func(ctx any), done func(error))) Result {
	t0 := e.begin(k, local)
	if local {
		if move != nil {
			move()
		}
		if ship != nil {
			if rfn := RemoteFn(cxs); rfn != nil {
				ship(rfn)
			}
		}
		return e.resolve(k, cxs, atInit, nil, t0)
	}
	// Credit admission happens before any completion state is built: a
	// refused operation never entered the substrate, so its failure is
	// delivered eagerly as a value (the whole point of surfacing overload
	// at initiation instead of blocking in the sender's window wait). A
	// refused fire-and-forget operation has no sink: the failure is booked
	// and the message dropped, exactly as a send toward a down peer is.
	dl = effectiveDeadline(dl, cxs)
	if admit && e.admit != nil {
		if err := e.admit(peer, dl); err != nil {
			return e.resolve(k, cxs, atInit, err, t0)
		}
	}
	if len(cxs) == 0 {
		inject(nil, nil) // fire-and-forget: no completion state at all
		return Result{}
	}
	ac := e.getAC(k, frags, t0)
	ac.sinks = append(ac.sinks, cxs...)
	res := e.resolve(k, ac.sinks, atArm, nil, t0)
	// Arm the deadline before injecting: injection may complete the record
	// synchronously (loopback conduits), but then recycle bumps ac.gen and
	// the armed entry is dropped on the next sweep.
	if dl > 0 {
		e.armDeadline(dl, ac)
	}
	inject(RemoteFn(cxs), ac.doneFn)
	return res
}

// begin is every operation's prologue: it books the initiation, performs
// the 2021.3.0 extra allocation for a synchronous RMA, and returns the
// initiation timestamp (hookT0) the outcome is later booked against.
func (e *Engine) begin(k OpKind, local bool) int64 {
	t0 := e.hookT0()
	e.phase(k, PhaseInitiated, 0)
	if local && kindLegacyAlloc(k) {
		e.LegacyAlloc()
	}
	return t0
}

// effectiveDeadline combines the descriptor's bound with any OpDeadline
// completion requests: the smallest positive one wins.
func effectiveDeadline(dl time.Duration, cxs []Cx) time.Duration {
	if d := DeadlineOf(cxs); d > 0 && (dl <= 0 || d < dl) {
		return d
	}
	return dl
}

// OpDescV describes one value-producing operation (get-class RMA,
// fetching atomics, returning RPC). Its notification discipline is a
// single Mode rather than a Cx list — the value-carrying future, or the
// value promise when Promise is set, is the only sink.
type OpDescV[T any] struct {
	// Kind is the operation family.
	Kind OpKind

	// Local reports that MoveV can produce the value synchronously.
	Local bool

	// Mode selects eager/deferred/default notification.
	Mode Mode

	// MoveV performs the synchronous operation and returns the produced
	// value; invoked iff Local.
	MoveV func() T

	// Inject launches the asynchronous operation; invoked iff !Local. The
	// produced value must be written through slot before done is invoked
	// (once, from inside the progress engine); a non-nil error reports
	// that the value will never arrive, failing the future/promise.
	Inject func(slot *T, done func(error))

	// Deadline, when positive, bounds the asynchronous operation's
	// completion time (ErrDeadlineExceeded on expiry).
	Deadline time.Duration

	// Peer / Admit mirror OpDesc: with Admit set, the remote injection is
	// subject to the substrate's per-peer credit admission, and a refusal
	// resolves the returned future (or promise) with the admission error.
	Peer  int
	Admit bool

	// Promise, when set, receives the value instead of a returned future
	// (which is then invalid); the asynchronous leg writes straight into
	// the promise's value slot.
	Promise *PromiseV[T]
}

// InitiateV runs one value-producing operation through the unified
// pipeline: the value is a single future or promise sink on the same
// initiate path as every other operation.
//
// The eager local path is allocation-free under the ValueInline version
// knob: the already-available value is carried inline in the returned
// future instead of in a heap cell — the pipeline's answer to §III-B's
// "a ready value future must still allocate".
func InitiateV[T any](e *Engine, d OpDescV[T]) FutureV[T] {
	return initiateV(e, d.Kind, d.Local, d.Mode, d.Deadline, d.Peer, d.Admit, d.MoveV, d.Inject, d.Promise)
}

func initiateV[T any](e *Engine, k OpKind, local bool, m Mode, dl time.Duration,
	peer int, admit bool,
	moveV func() T, inject func(slot *T, done func(error)), p *PromiseV[T]) FutureV[T] {
	// The one sink, bound to the cell that holds the value. Every path but
	// an eager inline value needs that cell — the deferred queue, the async
	// slot and a refused op's failed future all resolve it — so it exists
	// before initiate picks the path. An inline value has no sink: the
	// future carries it, and there is nothing to notify.
	var c *cellV[T]
	kind := KFuture
	switch {
	case p != nil:
		p.Bind()
		kind, c = KPromise, p.c
	case !local || !e.ver.ValueInline || !e.eager(m):
		c = newCellV[T](e)
	}
	var sink [1]Cx
	sinks := sink[:0]
	if c != nil {
		sink[0] = Cx{Kind: kind, Mode: m, c: &c.cell, val: true}
		sinks = sink[:]
	}
	var v T
	if local {
		// initiate's local arm, with the value moved straight into place.
		t0 := e.begin(k, true)
		v = moveV()
		if c != nil {
			c.v = v
		}
		e.resolve(k, sinks, atInit, nil, t0)
	} else {
		e.initiate(k, false, sinks, 1, dl, peer, admit, nil, nil,
			func(_ func(ctx any), done func(error)) { inject(&c.v, done) })
	}
	switch {
	case p != nil:
		return FutureV[T]{}
	case c == nil:
		return FutureV[T]{e: e, v: v, inline: true}
	}
	return FutureV[T]{c: c}
}

// kindLegacyAlloc reports whether the 2021.3.0 extra operation-state
// allocation applies to this family: the paper attributes it to RMA on
// directly-addressable global pointers (§IV-A), which covers the
// contiguous and VIS forms but not atomics, RPC, or collectives.
func kindLegacyAlloc(k OpKind) bool { return k == OpRMA || k == OpVIS }
