package core

import (
	"runtime"
	"time"
)

// Engine is one rank's progress engine: the deferred-notification queue,
// the local-procedure-call queue, the substrate poll hook, and the shared
// ready-future cell. All Engine state is owned by the rank's goroutine.
type Engine struct {
	rank int
	ver  Version

	poller func() int // substrate poll (AM dispatch); may be nil in tests
	parker func()     // substrate idle wait; may be nil in tests

	deferq  []*cell  // notifications awaiting the next progress call
	deferq2 []*cell  // double buffer for drain
	lpcq    []func() // local procedure calls awaiting the next progress call
	lpcq2   []func()

	readyCell *cell // shared pre-allocated ready cell (§III-B)

	inProgress bool

	// legacyScratch prevents the compiler from eliding the
	// LegacyExtraAlloc allocation.
	legacyScratch *legacyOpState

	// ops is the unified pipeline's per-family × per-phase counter matrix
	// and hook the optional per-phase observer (op.go).
	ops  OpStats
	hook PhaseHook

	// expiry observes per-op deadline expiries (SetExpiryHook) — the
	// operations plane's seam for deadline-expired events. nil by default.
	expiry func(k OpKind)

	// mirror, when set, is the race-safe shadow of ops and Stats that
	// off-goroutine observers (the metrics endpoint) read. Progress
	// flushes it every mirrorFlushEvery steps; World.Run flushes once more
	// when the rank function returns, so post-run reads are exact.
	mirror     *OpsMirror
	mirrorTick int

	// acFree recycles AsyncCompletion records: an async operation takes one
	// at initiation and its final substrate acknowledgment returns it, so
	// steady-state off-node traffic allocates no completion state.
	acFree []*AsyncCompletion

	// deadlines holds the armed per-op deadlines, swept by Progress. The
	// list is empty unless an operation requested a deadline, so the
	// common case costs one length check per progress step (no clock
	// read).
	deadlines []dlEntry

	// admit is the substrate's credit-based admission hook (SetAdmitter):
	// consulted before injecting a remote operation whose descriptor
	// requests admission, so a full send window surfaces as a completion
	// value (ErrBackpressure) instead of an unbounded block inside the
	// substrate. nil means always admitted.
	admit func(peer int, maxWait time.Duration) error

	// Stats counts allocation- and queue-level events, so tests can assert
	// the cost model the paper describes (e.g. an eager on-node put
	// allocates no cells and touches no queues).
	Stats Stats
}

// Stats tallies completion-machinery events on one engine.
type Stats struct {
	CellAllocs      int64 // internal promise cells heap-allocated
	DeferQPushes    int64 // notifications routed through the deferred queue
	LPCRuns         int64 // local procedure calls executed
	ProgressCalls   int64
	WhenAllBuilt    int64 // dependency-graph nodes constructed by WhenAll
	WhenAllElided   int64 // WhenAll calls short-circuited (§III-C)
	ReadyHits       int64 // ready futures served from the shared cell
	LegacyAllocs    int64 // extra 2021.3.0-style operation-state allocations
	EagerDeliveries int64 // completions delivered eagerly at initiation

	OpsFailed        int64 // operations resolved with an error
	DeadlinesArmed   int64 // per-op deadlines registered
	DeadlinesExpired int64 // deadlines that fired before completion

	ContinuationsRun   int64 // OpContinue callbacks invoked
	ContinuationPanics int64 // continuation callbacks that panicked (contained)
}

// NewEngine constructs rank's progress engine under the given library
// version.
func NewEngine(rank int, ver Version) *Engine {
	e := &Engine{rank: rank, ver: ver}
	e.readyCell = &cell{eng: e, ready: true}
	return e
}

// Rank returns the rank this engine belongs to.
func (e *Engine) Rank() int { return e.rank }

// Version returns the library version the engine is emulating.
func (e *Engine) Version() Version { return e.ver }

// SetPoller installs the substrate poll hook, called at the start of every
// progress step to dispatch inbound active messages.
func (e *Engine) SetPoller(fn func() int) { e.poller = fn }

// SetParker installs the substrate idle-wait hook, which Idle calls after
// an idle Progress. The substrate owns the wait policy — whether to yield
// or to park until a message may have arrived — because only it knows what
// delivers the rank's messages.
func (e *Engine) SetParker(fn func()) { e.parker = fn }

// SetAdmitter installs the substrate's per-peer admission hook, consulted
// by Initiate/InitiateV for remote descriptors that request admission
// (OpDesc.Admit). fn receives the target rank and the operation's
// deadline budget (zero when it has none; the substrate applies its own
// policy bound) and returns nil to admit, or the error — typically
// ErrBackpressure or ErrPeerUnreachable — to deliver through the
// operation's completions. nil removes the hook.
func (e *Engine) SetAdmitter(fn func(peer int, maxWait time.Duration) error) { e.admit = fn }

// SetExpiryHook installs (or, with nil, removes) the deadline-expiry
// observer: fn runs on the engine's goroutine, inside the progress
// engine's deadline sweep, once per expired operation. It must not
// block; the runtime layer uses it to publish deadline-expired events.
func (e *Engine) SetExpiryHook(fn func(k OpKind)) { e.expiry = fn }

// SetMirror installs the engine's race-safe counter shadow (nil
// removes it). Install before the rank goroutine starts: the field is
// read by Progress on the engine's goroutine.
func (e *Engine) SetMirror(m *OpsMirror) { e.mirror = m }

// FlushMirror publishes the engine's current counters into its mirror
// (a no-op without one). Must run on the engine's goroutine.
func (e *Engine) FlushMirror() {
	if e.mirror != nil {
		e.mirror.flush(e)
	}
}

// mirrorFlushEvery is how many Progress steps elapse between mirror
// flushes: ~190 atomic stores every 64 steps keeps the mirror fresh at
// sub-millisecond staleness under load while costing the progress path
// a counter increment per step.
const mirrorFlushEvery = 64

// Idle relinquishes the CPU after an idle Progress step through the
// substrate parker (SetParker), or with a scheduler yield when none is
// installed.
func (e *Engine) Idle() {
	if e.parker == nil {
		runtime.Gosched()
		return
	}
	e.parker()
}

// Progress runs one step of the progress engine: poll the substrate, fire
// all queued deferred notifications, and run queued LPCs. It returns the
// number of events processed (0 means the step was idle, so callers may
// yield).
//
// Progress may be re-entered from a callback (e.g. a Then body that Waits);
// the nested call polls the substrate but leaves queue draining to the
// outer invocation, mirroring UPC++'s restricted-context rules.
func (e *Engine) Progress() int {
	e.Stats.ProgressCalls++
	n := 0
	if e.poller != nil {
		n += e.poller()
	}
	if e.inProgress {
		return n
	}
	e.inProgress = true
	defer func() { e.inProgress = false }()

	if len(e.deadlines) > 0 {
		n += e.sweepDeadlines()
	}

	// Drain the deferred-notification queue. Firing a notification runs
	// user callbacks, which may initiate new operations and push new
	// deferred notifications; those fire in the same call (they are being
	// delivered "inside the progress engine", which the deferred contract
	// permits), so drain to a fixpoint using a double buffer.
	for len(e.deferq) > 0 {
		q := e.deferq
		e.deferq = e.deferq2[:0]
		e.deferq2 = q // will be reused next swap
		for _, c := range q {
			c.fulfill(1)
		}
		n += len(q)
		clear(q)
	}
	for len(e.lpcq) > 0 {
		q := e.lpcq
		e.lpcq = e.lpcq2[:0]
		e.lpcq2 = q
		for _, fn := range q {
			fn()
		}
		n += len(q)
		e.Stats.LPCRuns += int64(len(q))
		clear(q)
	}
	if e.mirror != nil {
		e.mirrorTick++
		if e.mirrorTick >= mirrorFlushEvery {
			e.mirrorTick = 0
			e.mirror.flush(e)
		}
	}
	return n
}

// dlEntry is one armed per-op deadline: the absolute expiry instant plus
// the completion record it guards. Records are recycled, so the entry
// captures the generation it armed against and is dropped on mismatch.
type dlEntry struct {
	at  int64 // expiry, UnixNano
	ac  *AsyncCompletion
	gen uint32
}

// armDeadline registers a deadline that resolves ac's sinks with
// ErrDeadlineExceeded if the final substrate acknowledgment has not
// arrived within d.
func (e *Engine) armDeadline(d time.Duration, ac *AsyncCompletion) {
	e.Stats.DeadlinesArmed++
	e.deadlines = append(e.deadlines, dlEntry{at: time.Now().Add(d).UnixNano(), ac: ac, gen: ac.gen})
}

// sweepDeadlines expires overdue deadlines and compacts the list,
// returning the number fired. Entries whose operation already resolved
// (record recycled or resolved) are dropped for free. An expired record
// stays out of the freelist until the substrate's outstanding
// acknowledgments drain through Done, which absorbs them.
func (e *Engine) sweepDeadlines() int {
	now := time.Now().UnixNano()
	n := 0
	kept := e.deadlines[:0]
	for _, dl := range e.deadlines {
		switch {
		case dl.ac.gen != dl.gen || dl.ac.resolved:
			// Resolved (either way) before the deadline: drop.
		case dl.at <= now:
			e.Stats.DeadlinesExpired++
			n++
			if e.expiry != nil {
				e.expiry(dl.ac.kind)
			}
			dl.ac.settle(ErrDeadlineExceeded)
		default:
			kept = append(kept, dl)
		}
	}
	clear(e.deadlines[len(kept):])
	e.deadlines = kept
	return n
}

// FailedFuture returns a ready value-less future carrying err — the eager
// form of failure notification.
func (e *Engine) FailedFuture(err error) Future {
	c := e.newCell()
	c.deps = 0
	c.ready = true
	c.err = err
	return Future{c}
}

// deferFulfill schedules one dependency resolution of c for the next
// progress call (the legacy deferred-notification path).
func (e *Engine) deferFulfill(c *cell) {
	e.Stats.DeferQPushes++
	e.deferq = append(e.deferq, c)
}

// EnqueueLPC schedules fn to run at the next progress call on this rank.
func (e *Engine) EnqueueLPC(fn func()) {
	e.lpcq = append(e.lpcq, fn)
}

// ReadyFuture returns a ready value-less future. Under the ReadySingleton
// optimization this is the engine's shared pre-allocated cell and costs no
// allocation; otherwise a fresh ready cell is allocated, reproducing the
// 2021.3.0 cost model.
func (e *Engine) ReadyFuture() Future {
	if e.ver.ReadySingleton {
		e.Stats.ReadyHits++
		return Future{e.readyCell}
	}
	return Future{e.newReadyCell()}
}

// MakeFuture constructs a ready value-less future (the user-visible
// make_future idiom that seeds conjoining loops).
func (e *Engine) MakeFuture() Future { return e.ReadyFuture() }

// NewOpFuture allocates a non-ready future and returns it with its
// fulfillment handle.
func (e *Engine) NewOpFuture() (Future, FulfillHandle) {
	c := e.newCell()
	return Future{c}, FulfillHandle{c}
}

// legacyOpState stands in for the operation-state object that UPC++
// 2021.3.0 heap-allocated even for directly-addressable RMA (§IV-A).
type legacyOpState struct {
	_ [4]uint64
}

// LegacyAlloc performs the extra 2021.3.0-style allocation when the
// emulated version calls for it.
func (e *Engine) LegacyAlloc() {
	if e.ver.LegacyExtraAlloc {
		e.Stats.LegacyAllocs++
		e.legacyScratch = &legacyOpState{}
	}
}

// Quiesced reports whether the engine has no queued work (used by tests
// and orderly shutdown).
func (e *Engine) Quiesced() bool {
	return len(e.deferq) == 0 && len(e.lpcq) == 0
}
