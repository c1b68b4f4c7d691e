package core

import (
	"fmt"
	"time"
)

// Event identifies which stage of a communication operation a completion
// notification is attached to (§II-A).
type Event uint8

const (
	// EvOp is operation completion: the whole operation is complete from
	// the initiator's perspective.
	EvOp Event = iota
	// EvSource is source completion: the source buffer may be reused.
	EvSource
	// EvRemote is remote completion: data has arrived at the target (put
	// only); the action runs on the target process.
	EvRemote
)

// String names the event as in the paper.
func (ev Event) String() string {
	switch ev {
	case EvOp:
		return "operation"
	case EvSource:
		return "source"
	case EvRemote:
		return "remote"
	default:
		return fmt.Sprintf("event(%d)", uint8(ev))
	}
}

// Mode selects the notification discipline for a completion request.
type Mode uint8

const (
	// ModeDefault defers to the library version's default (eager for
	// Eager2021_3_6, deferred otherwise) — the as_future/as_promise
	// factories under the UPCXX_DEFER_COMPLETION macro regime.
	ModeDefault Mode = iota
	// ModeEager permits (but does not guarantee) notification at
	// initiation when the data movement completes synchronously
	// (as_eager_future / as_eager_promise).
	ModeEager
	// ModeDefer guarantees notification is deferred to the next progress
	// call, the legacy semantics (as_defer_future / as_defer_promise).
	ModeDefer
)

// Kind identifies the notification mechanism of a completion request.
type Kind uint8

const (
	// KFuture notifies through a returned future.
	KFuture Kind = iota
	// KPromise notifies by fulfilling a registered promise.
	KPromise
	// KLPC notifies by running a local procedure call on the initiator at
	// the next progress call.
	KLPC
	// KRPC notifies by running a procedure on the target after data
	// arrival (remote completion only).
	KRPC
	// KDeadline is not a notification sink: it bounds the operation's
	// completion time (Cx.Dl). It composes with the real sinks and is
	// skipped by resolve.
	KDeadline
	// KContinue notifies by running a continuation callback inline: on
	// the initiating goroutine for synchronously-completed operations, on
	// the progress goroutine at acknowledgment time otherwise. It is the
	// cell-free completion form — no future cell is allocated and the
	// recycled completion record carries the callback.
	KContinue
)

// Cx is a single completion request: an event, a mechanism, and a mode.
// Compose several by passing multiple Cx values to an operation, the
// library analogue of UPC++'s `|` composition of completion factories.
type Cx struct {
	Ev   Event
	Kind Kind
	Mode Mode
	Prom *Promise // KPromise
	Fn   func()   // KLPC and KRPC
	// CtxFn is the KRPC variant receiving the target's runtime context
	// (the *Rank, passed as the substrate endpoint's Ctx) — the analogue
	// of a remote_cx::as_rpc body observing rank_me() == target.
	CtxFn func(ctx any)
	// Cont is the KContinue callback, invoked with the operation's
	// outcome (nil on success).
	Cont func(error)
	// Dl is the completion-time bound for KDeadline requests.
	Dl time.Duration

	// c and val bind a request to the pipeline's completion state; both
	// are zero in every request a caller builds. c is the cell a future or
	// promise sink resolves (set once the pipeline allocates or registers
	// it); val marks the sink of a value-producing operation (OpDescV).
	c   *cell
	val bool
}

// Completion factories, mirroring the paper's §III-A API.

// OpFuture requests operation completion via a future in the version's
// default mode (operation_cx::as_future).
func OpFuture() Cx { return Cx{Ev: EvOp, Kind: KFuture, Mode: ModeDefault} }

// OpEagerFuture requests operation completion via a future, permitting
// eager notification (operation_cx::as_eager_future).
func OpEagerFuture() Cx { return Cx{Ev: EvOp, Kind: KFuture, Mode: ModeEager} }

// OpDeferFuture requests operation completion via a future with guaranteed
// deferral (operation_cx::as_defer_future).
func OpDeferFuture() Cx { return Cx{Ev: EvOp, Kind: KFuture, Mode: ModeDefer} }

// OpPromise requests operation completion by fulfilling p in the version's
// default mode (operation_cx::as_promise).
func OpPromise(p *Promise) Cx { return Cx{Ev: EvOp, Kind: KPromise, Mode: ModeDefault, Prom: p} }

// OpEagerPromise permits eager fulfillment of p
// (operation_cx::as_eager_promise).
func OpEagerPromise(p *Promise) Cx { return Cx{Ev: EvOp, Kind: KPromise, Mode: ModeEager, Prom: p} }

// OpDeferPromise guarantees deferred fulfillment of p
// (operation_cx::as_defer_promise).
func OpDeferPromise(p *Promise) Cx { return Cx{Ev: EvOp, Kind: KPromise, Mode: ModeDefer, Prom: p} }

// OpLPC requests operation completion by running fn on the initiating rank
// at the next progress call (operation_cx::as_lpc).
func OpLPC(fn func()) Cx { return Cx{Ev: EvOp, Kind: KLPC, Fn: fn} }

// SourceFuture requests source completion via a future in the default mode
// (source_cx::as_future).
func SourceFuture() Cx { return Cx{Ev: EvSource, Kind: KFuture, Mode: ModeDefault} }

// SourceEagerFuture permits eager source-completion notification.
func SourceEagerFuture() Cx { return Cx{Ev: EvSource, Kind: KFuture, Mode: ModeEager} }

// SourceDeferFuture guarantees deferred source-completion notification.
func SourceDeferFuture() Cx { return Cx{Ev: EvSource, Kind: KFuture, Mode: ModeDefer} }

// SourcePromise requests source completion by fulfilling p.
func SourcePromise(p *Promise) Cx {
	return Cx{Ev: EvSource, Kind: KPromise, Mode: ModeDefault, Prom: p}
}

// SourceLPC requests source completion via a local procedure call.
func SourceLPC(fn func()) Cx { return Cx{Ev: EvSource, Kind: KLPC, Fn: fn} }

// RemoteRPC requests remote completion: fn runs on the target rank's
// progress goroutine after the data has been applied
// (remote_cx::as_rpc).
func RemoteRPC(fn func()) Cx { return Cx{Ev: EvRemote, Kind: KRPC, Fn: fn} }

// RemoteRPCCtx requests remote completion with access to the target
// rank's runtime context; the runtime layer supplies the context value.
func RemoteRPCCtx(fn func(ctx any)) Cx { return Cx{Ev: EvRemote, Kind: KRPC, CtxFn: fn} }

// OpContinue requests operation completion via a continuation: fn runs
// with the operation's outcome (nil on success) as soon as that outcome
// is known — inline at initiation for synchronously-completed
// operations, inline on the progress goroutine at acknowledgment time
// for asynchronous ones. Unlike OpLPC it does not wait for the next
// progress call, and unlike OpFuture it allocates nothing: no future
// cell is created and the recycled AsyncCompletion record carries the
// callback, so a steady-state asynchronous put or get completes with
// zero allocations (the MPI-continuations analogue of the paper's eager
// notification: the progress engine notifies, the waiter never polls a
// cell).
//
// fn runs inside the progress engine and must not block; it may initiate
// communication. A panic in fn is contained: the progress loop keeps
// running, the panic is counted (Stats.ContinuationPanics), and the
// operation's remaining sinks — if futures or promises were composed
// alongside the continuation — resolve with a *ContinuationError.
// Mode is ignored: a continuation always fires at the moment of
// completion.
func OpContinue(fn func(error)) Cx { return Cx{Ev: EvOp, Kind: KContinue, Cont: fn} }

// OpDeadline bounds the operation's completion time: if the substrate has
// not acknowledged within d, the operation's notifications resolve with
// ErrDeadlineExceeded. It is not a notification sink — compose it with the
// real sinks (e.g. OpFuture(), OpDeadline(d)). Deadlines apply only to
// genuinely asynchronous operations; a synchronous (local) completion
// trivially beats any positive bound.
func OpDeadline(d time.Duration) Cx { return Cx{Ev: EvOp, Kind: KDeadline, Dl: d} }

// DeadlineOf extracts the effective deadline from a completion-request
// set: the smallest positive bound requested, or zero if none.
func DeadlineOf(cxs []Cx) time.Duration {
	var d time.Duration
	for _, cx := range cxs {
		if cx.Kind == KDeadline && cx.Dl > 0 && (d == 0 || cx.Dl < d) {
			d = cx.Dl
		}
	}
	return d
}

// eager decides whether a request with the given mode is delivered eagerly
// under this engine's version. This is the single eager-vs-deferred branch
// in the codebase: every operation family reaches it through resolve, so
// the paper's three versions are knobs on one code path rather than
// scattered conditionals.
func (e *Engine) eager(m Mode) bool {
	switch m {
	case ModeEager:
		return true
	case ModeDefer:
		return false
	default:
		return e.ver.EagerDefault
	}
}

// Result carries the futures produced by an operation's requested
// completions. Futures for events that were not requested are invalid.
type Result struct {
	// Op is the operation-completion future (valid iff an Op future was
	// requested).
	Op Future
	// Source is the source-completion future (valid iff a Source future
	// was requested).
	Source Future
}

// Wait waits on the operation-completion future.
func (r Result) Wait() { r.Op.Wait() }

// set records a produced future in the Result slot for its event.
func (r *Result) set(ev Event, f Future) {
	switch ev {
	case EvOp:
		if r.Op.Valid() {
			panic("gupcxx: duplicate operation-completion future requested")
		}
		r.Op = f
	case EvSource:
		if r.Source.Valid() {
			panic("gupcxx: duplicate source-completion future requested")
		}
		r.Source = f
	}
}

// timing is when resolve runs for an operation.
type timing uint8

const (
	// atInit: the operation completed (or was refused) during initiation;
	// each sink is notified eagerly or deferred by its mode.
	atInit timing = iota
	// atArm: the operation was injected; source sinks resolve as at
	// initiation (the substrate copied the buffer), operation sinks are
	// recorded on the completion record to wait for the ack.
	atArm
	// atAck: the progress engine resolves the recorded sinks — the last
	// substrate acknowledgment, a failure, or a deadline expiry.
	atAck
)

// resolve is the completion core: every sink of every operation resolves
// here, by (kind, outcome, timing) — the resolution table of DESIGN.md
// §9.1, pinned by TestSinkResolutionTable — and this is the one place an
// operation's outcome phase and failure are booked.
//
// A sink resolving at initiation books its own eager or deferred phase (an
// operation without sinks books one eager completion); an acknowledged or
// failed operation books once. At ack, continuations run first: a panic
// in one turns success into a *ContinuationError for the other sinks. On
// the synchronous path a panic is counted but fails nothing — the
// operation already succeeded. Value sinks (val) arrive with their cell
// already holding the value and count no EagerDeliveries; an inline value
// future is no sink at all.
//
// At atArm, sinks is the operation's own record (AsyncCompletion.sinks):
// each operation sink gets its cell bound in place, to be resolved at atAck.
func (e *Engine) resolve(k OpKind, sinks []Cx, at timing, err error, t0 int64) Result {
	// The paper's case first: a lone eager future on a synchronously
	// completed operation is the shared ready future. This is the walk
	// below for that one row, without walking.
	if at == atInit && err == nil && len(sinks) == 1 {
		if s := &sinks[0]; s.Ev == EvOp && s.Kind == KFuture && s.c == nil && e.eager(s.Mode) {
			e.Stats.EagerDeliveries++
			e.phase(k, PhaseEagerCompleted, t0)
			return Result{Op: e.ReadyFuture()}
		}
	}
	if at == atAck {
		for i := range sinks {
			if s := &sinks[i]; s.Ev == EvOp && s.Kind == KContinue {
				if cerr := e.runCont(s.Cont, err); err == nil {
					err = cerr
				}
			}
		}
	}
	switch {
	case err != nil:
		e.Stats.OpsFailed++
		e.phase(k, PhaseFailed, t0)
	case at == atAck:
		e.phase(k, PhaseWireAcked, t0)
	case len(sinks) == 0:
		// Nothing to notify: the operation itself completed eagerly.
		e.phase(k, PhaseEagerCompleted, t0)
	}
	var res Result
	for i := range sinks {
		s := &sinks[i]
		switch {
		case s.Ev == EvRemote, s.Kind == KDeadline:
			continue // remote: delivered at the target; deadline: not a sink
		case at == atAck && (s.Ev != EvOp || s.Kind == KContinue):
			continue // source: resolved when armed; continuation: ran first
		}
		arm := at == atArm && s.Ev == EvOp
		eager := false
		if at != atAck && err == nil && !arm {
			// LPCs always wait for progress; continuations always fire now.
			eager = s.Kind == KContinue || s.Kind != KLPC && e.eager(s.Mode)
			ph := PhaseDeferredQueued
			if eager {
				ph = PhaseEagerCompleted
				if !s.val {
					e.Stats.EagerDeliveries++
				}
			}
			e.phase(k, ph, t0)
		}
		switch s.Kind {
		case KFuture, KPromise:
			// The cell to resolve: value sinks, and sinks armed earlier, bring
			// theirs; an eager sink needs none; any other takes the promise's
			// (one more dependency) or a new future cell.
			c := s.c
			if c == nil {
				switch {
				case eager && s.Kind == KPromise:
					continue // elided promise
				case eager:
					res.set(s.Ev, e.ReadyFuture())
					continue
				case s.Kind == KPromise:
					s.Prom.Require(1)
					c = s.Prom.c
				default:
					c = e.newCell()
					res.set(s.Ev, Future{c})
				}
				if arm {
					s.c = c
				}
			}
			switch {
			case arm:
			case err != nil && s.Kind == KPromise:
				c.fulfillErr(err)
			case err != nil:
				c.fail(err)
			case eager || at == atAck:
				c.fulfill(1)
			default:
				e.deferFulfill(c)
			}
		case KLPC:
			if !arm {
				e.EnqueueLPC(s.Fn)
			}
		case KContinue:
			if !arm {
				e.runCont(s.Cont, err)
			}
		default:
			invalidSink(s)
		}
	}
	return res
}

// invalidSink rejects a completion request no sink resolves. It is out of
// line so that resolve's frame stays small.
func invalidSink(s *Cx) {
	panic(fmt.Sprintf("gupcxx: completion kind %d invalid for event %v", s.Kind, s.Ev))
}

// AsyncCompletion is the initiator-side record of an operation that did
// not complete synchronously: the sinks to resolve when the substrate
// reports completion. Records are recycled through the engine's freelist —
// taken at initiation, returned once the last acknowledgment has arrived —
// so steady-state off-node traffic allocates no completion state.
type AsyncCompletion struct {
	eng  *Engine
	kind OpKind

	// frags is the number of outstanding substrate acknowledgments (VIS
	// operations fan one operation out into several transfers); the last
	// one resolves the sinks.
	frags int

	// gen increments each time the record is recycled; armed deadlines
	// capture the generation they observed, so a stale deadline entry
	// (record reused by a later operation) is recognized and dropped.
	gen uint32

	// resolved marks a record whose sinks were already resolved — by a
	// failure, a deadline expiry or the last acknowledgment. Later
	// acknowledgments are absorbed; the last one still recycles the record,
	// so it is never reused while acknowledgments are in flight.
	resolved bool

	// doneFn caches the Done method value so the substrate is handed the
	// same func(error) every time, without a closure per operation.
	doneFn func(error)

	// t0 is the initiation timestamp for latency attribution (hookT0;
	// zero when no phase hook is installed at initiation).
	t0 int64

	// sinks is the operation's completion-request set, copied at
	// initiation; its operation sinks carry the cells bound when armed.
	sinks []Cx
}

// getAC takes a record from the freelist (or allocates the freelist's
// steady-state population on first use).
func (e *Engine) getAC(k OpKind, frags int, t0 int64) *AsyncCompletion {
	var ac *AsyncCompletion
	if n := len(e.acFree); n > 0 {
		ac = e.acFree[n-1]
		e.acFree[n-1] = nil
		e.acFree = e.acFree[:n-1]
	} else {
		ac = &AsyncCompletion{eng: e}
		ac.doneFn = ac.Done
	}
	ac.kind, ac.frags, ac.t0 = k, max(frags, 1), t0
	return ac
}

// Done consumes one substrate acknowledgment. A non-nil err resolves the
// sinks with it at once; otherwise the last acknowledgment resolves them
// successfully. It must be called on the initiating rank's goroutine from
// within the progress engine (the substrate's acknowledgment handler).
func (ac *AsyncCompletion) Done(err error) {
	ac.frags--
	if err != nil || ac.frags == 0 {
		ac.settle(err)
	}
	if ac.frags == 0 {
		ac.recycle()
	}
}

// settle resolves the record's sinks with err, once.
func (ac *AsyncCompletion) settle(err error) {
	if !ac.resolved {
		ac.resolved = true
		ac.eng.resolve(ac.kind, ac.sinks, atAck, err, ac.t0)
	}
}

// recycle clears the record and returns it to the freelist. Only after
// resolution: fulfillment cascades may initiate new operations, and a
// record still being walked must not be handed out. The generation bump
// invalidates any deadline entry still pointing here.
func (ac *AsyncCompletion) recycle() {
	clear(ac.sinks)
	ac.sinks = ac.sinks[:0]
	ac.resolved = false
	ac.gen++
	ac.eng.acFree = append(ac.eng.acFree, ac)
}

// runCont invokes a continuation callback under the panic-containment
// boundary: a panic is recovered (the progress loop keeps running),
// counted, and returned as a *ContinuationError for the caller to route
// into the operation's remaining sinks. A nil return means the callback
// completed normally.
func (e *Engine) runCont(fn func(error), err error) (cerr error) {
	defer func() {
		if p := recover(); p != nil {
			e.Stats.ContinuationPanics++
			cerr = &ContinuationError{Rank: e.rank, Msg: fmt.Sprint(p)}
		}
	}()
	e.Stats.ContinuationsRun++
	fn(err)
	return nil
}

// RemoteFn extracts the composed remote-completion action from cxs, or nil
// if none was requested. Multiple RemoteRPC/RemoteRPCCtx requests compose
// in order; the action receives the target's runtime context (forwarded
// to CtxFn callbacks, ignored by plain ones).
func RemoteFn(cxs []Cx) func(ctx any) {
	var fns []func(ctx any)
	for _, cx := range cxs {
		if cx.Ev != EvRemote {
			continue
		}
		if cx.Kind != KRPC {
			panic("gupcxx: remote completion supports only RPC notification")
		}
		if cx.CtxFn != nil {
			fns = append(fns, cx.CtxFn)
		} else {
			fn := cx.Fn
			fns = append(fns, func(any) { fn() })
		}
	}
	switch len(fns) {
	case 0:
		return nil
	case 1:
		return fns[0]
	default:
		return func(ctx any) {
			for _, fn := range fns {
				fn(ctx)
			}
		}
	}
}

// HasRemote reports whether cxs requests remote completion; get-class
// operations use it to reject the request (remote completion is defined
// only for puts, as in UPC++).
func HasRemote(cxs []Cx) bool {
	for _, cx := range cxs {
		if cx.Ev == EvRemote {
			return true
		}
	}
	return false
}
