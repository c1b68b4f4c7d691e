package core

// cell is the internal promise cell backing futures and promises: a
// countdown of outstanding dependencies, a readiness flag, and the list of
// callbacks to cascade when the count drains. Every future references a
// cell; constructing a non-ready future therefore costs one heap
// allocation — the cost the paper's eager notification removes from the
// critical path of synchronously-completed operations.
//
// A cell is owned by the rank that allocated it: all mutation happens on
// that rank's goroutine (initiation, progress, or callbacks run from
// either), so no synchronization is needed — mirroring UPC++'s
// single-persona execution model.
type cell struct {
	eng   *Engine
	deps  int32
	ready bool
	// err is the failure-as-a-value slot: a cell that readies through fail
	// carries the operation's error instead of a successful completion.
	// Once a cell is ready the err is immutable, so consumers (Err, Then
	// chains, WhenAll) read it without further bookkeeping.
	err error
	cbs []func()
}

// newCell allocates a cell with one outstanding dependency.
func (e *Engine) newCell() *cell {
	e.Stats.CellAllocs++
	return &cell{eng: e, deps: 1}
}

// newReadyCell allocates an already-ready cell (used when the ready-future
// singleton optimization is disabled).
func (e *Engine) newReadyCell() *cell {
	e.Stats.CellAllocs++
	return &cell{eng: e, ready: true}
}

// fulfill resolves n dependencies; when the count drains to zero the cell
// becomes ready and its callbacks run immediately (the caller is by
// construction either inside the progress engine or at an eager-completion
// initiation point).
func (c *cell) fulfill(n int32) {
	if c.ready {
		if c.err != nil {
			// The cell was short-circuited by fail (deadline expiry, peer
			// death): the substrate's late acknowledgment is expected and
			// must be dropped, not treated as over-fulfillment.
			return
		}
		panic("gupcxx: fulfill on ready future/promise cell")
	}
	c.deps -= n
	if c.deps < 0 {
		panic("gupcxx: dependency count underflow (over-fulfilled promise)")
	}
	if c.deps > 0 {
		return
	}
	c.ready = true
	cbs := c.cbs
	c.cbs = nil
	for _, cb := range cbs {
		cb()
	}
}

// fulfillErr resolves one dependency carrying an outcome: the first error
// recorded this way is the cell's failure once the count drains. Unlike
// fail it does not short-circuit — the promise form of failure,
// "everything finished, at least one failed".
func (c *cell) fulfillErr(err error) {
	if err != nil && !c.ready && c.err == nil {
		c.err = err
	}
	c.fulfill(1)
}

// fail resolves the cell immediately with err, regardless of outstanding
// dependencies: the cell becomes ready carrying the error and its
// callbacks run (each callback decides whether to propagate or act). A
// second fail, or a fail after successful fulfillment, is a no-op — the
// first resolution wins. Like fulfill, it must run on the owning rank's
// goroutine.
func (c *cell) fail(err error) {
	if c.ready {
		return
	}
	c.err = err
	c.ready = true
	c.deps = 0
	cbs := c.cbs
	c.cbs = nil
	for _, cb := range cbs {
		cb()
	}
}

// require adds n outstanding dependencies to a not-yet-ready cell.
func (c *cell) require(n int32) {
	if c.ready {
		panic("gupcxx: require on ready promise cell")
	}
	c.deps += n
}

// onReady arranges for fn to run when the cell is ready; if it already is,
// fn runs immediately. Ready cells are never mutated, so the shared ready
// singleton can be handed out freely.
func (c *cell) onReady(fn func()) {
	if c.ready {
		fn()
		return
	}
	c.cbs = append(c.cbs, fn)
}

// Future is the consumer side of a value-less asynchronous result. The
// zero Future is invalid; futures are obtained from communication
// operations, promises, MakeFuture, or WhenAll.
type Future struct {
	c *cell
}

// Valid reports whether the future was actually produced by an operation
// (a completion that was not requested yields an invalid Future).
func (f Future) Valid() bool { return f.c != nil }

// Ready reports whether the future's operation has completed and the
// notification has been delivered.
func (f Future) Ready() bool {
	f.check()
	return f.c.ready
}

func (f Future) check() {
	if f.c == nil {
		panic("gupcxx: use of invalid Future (completion was not requested)")
	}
}

// Err returns the failure the future resolved with, or nil while the
// future is pending or after a successful completion. A non-nil Err
// implies Ready.
func (f Future) Err() error {
	f.check()
	return f.c.err
}

// Wait spins the owning rank's progress engine until the future is ready.
// A future that resolves with a failure is ready too; use WaitErr (or Err
// after Wait) to observe it.
func (f Future) Wait() {
	f.check()
	c := f.c
	for !c.ready {
		if c.eng.Progress() == 0 {
			c.eng.Idle()
		}
	}
}

// WaitErr waits for the future to resolve and returns its failure, or nil
// on success.
func (f Future) WaitErr() error {
	f.Wait()
	return f.c.err
}

// Then registers fn to run when the future becomes ready and returns a
// future representing fn's completion. If the receiver is already ready —
// which can only happen through eager notification or explicit ready-future
// construction — fn runs synchronously during Then, per the paper's relaxed
// semantics.
// A failed receiver skips fn and propagates the error to the returned
// future, so a Then chain behaves like sequential code after a thrown
// error.
func (f Future) Then(fn func()) Future {
	f.check()
	c := f.c
	if c.ready {
		if c.err != nil {
			return Future{c}
		}
		fn()
		return c.eng.ReadyFuture()
	}
	child := c.eng.newCell()
	c.cbs = append(c.cbs, func() {
		if c.err != nil {
			child.fail(c.err)
			return
		}
		fn()
		child.fulfill(1)
	})
	return Future{child}
}

// ThenF chains an asynchronous continuation: fn runs when the receiver
// readies and itself returns a future; the result readies when fn's
// future does. This is the paper's §II chaining idiom
// (rget(...).then(cb-returning-rput-future)). A ready receiver runs fn
// synchronously and returns fn's future directly.
func (f Future) ThenF(fn func() Future) Future {
	f.check()
	c := f.c
	if c.ready {
		if c.err != nil {
			return Future{c}
		}
		inner := fn()
		inner.check()
		return inner
	}
	child := c.eng.newCell()
	c.cbs = append(c.cbs, func() {
		if c.err != nil {
			child.fail(c.err)
			return
		}
		inner := fn()
		inner.check()
		inner.c.onReady(func() {
			if inner.c.err != nil {
				child.fail(inner.c.err)
				return
			}
			child.fulfill(1)
		})
	})
	return Future{child}
}

// cellV is a cell carrying a single value of type T. Ready value-carrying
// futures cannot use the shared singleton — the value must live somewhere —
// so a cell-backed one always costs an allocation (§III-B), which is what
// motivates the paper's fetch-to-memory atomics. The unified pipeline
// additionally sidesteps the cell for eagerly-completed operations by
// storing the value inline in the FutureV struct (ValueInline knob).
type cellV[T any] struct {
	cell
	v T
}

// FutureV is the consumer side of an asynchronous result carrying one value
// of type T.
//
// A FutureV has two representations. The cell-backed one (c != nil) is the
// general case: the value lives in a heap cellV that the producer fills.
// The inline one carries an already-available value in the future struct
// itself — produced by the unified pipeline for eagerly-completed
// value-producing operations under the ValueInline version knob, removing
// the per-call heap cell that §III-B says a ready value future must
// otherwise pay for.
type FutureV[T any] struct {
	c *cellV[T]

	// Inline representation: e is the owning engine (for Then/Drop
	// derivations), v the ready value.
	e      *Engine
	v      T
	inline bool
}

// Valid reports whether the future was produced by an operation.
func (f FutureV[T]) Valid() bool { return f.c != nil || f.inline }

// Ready reports whether the value is available.
func (f FutureV[T]) Ready() bool {
	f.check()
	return f.inline || f.c.ready
}

func (f FutureV[T]) check() {
	if f.c == nil && !f.inline {
		panic("gupcxx: use of invalid FutureV (completion was not requested)")
	}
}

// Err returns the failure the future resolved with, or nil while pending
// or after success. Inline futures are by construction successful.
func (f FutureV[T]) Err() error {
	f.check()
	if f.inline {
		return nil
	}
	return f.c.err
}

// Wait spins the progress engine until the value is available and returns
// it. A failed future is ready with the zero value; use WaitErr to
// distinguish.
func (f FutureV[T]) Wait() T {
	f.check()
	if f.inline {
		return f.v
	}
	c := f.c
	for !c.ready {
		if c.eng.Progress() == 0 {
			c.eng.Idle()
		}
	}
	return c.v
}

// WaitErr waits for the future to resolve and returns the value together
// with the failure (zero value and non-nil error if the operation failed).
func (f FutureV[T]) WaitErr() (T, error) {
	v := f.Wait()
	if f.inline {
		return v, nil
	}
	return v, f.c.err
}

// Value returns the result of a ready future; it panics if the future is
// not ready.
func (f FutureV[T]) Value() T {
	f.check()
	if f.inline {
		return f.v
	}
	if !f.c.ready {
		panic("gupcxx: Value on non-ready future")
	}
	return f.c.v
}

// Then registers fn to receive the value when ready, returning a future for
// fn's completion. A ready receiver runs fn synchronously (eager
// semantics).
// A failed receiver skips fn and propagates the error.
func (f FutureV[T]) Then(fn func(T)) Future {
	f.check()
	if f.inline {
		fn(f.v)
		return f.e.ReadyFuture()
	}
	c := f.c
	if c.ready {
		if c.err != nil {
			return Future{&c.cell}
		}
		fn(c.v)
		return c.eng.ReadyFuture()
	}
	child := c.eng.newCell()
	c.cbs = append(c.cbs, func() {
		if c.err != nil {
			child.fail(c.err)
			return
		}
		fn(c.v)
		child.fulfill(1)
	})
	return Future{child}
}

// ThenF chains an asynchronous continuation receiving the value; the
// result readies when the future fn returns does. See Future.ThenF.
func (f FutureV[T]) ThenF(fn func(T) Future) Future {
	f.check()
	if f.inline {
		inner := fn(f.v)
		inner.check()
		return inner
	}
	if f.c.ready {
		if f.c.err != nil {
			return Future{&f.c.cell}
		}
		inner := fn(f.c.v)
		inner.check()
		return inner
	}
	child := f.c.eng.newCell()
	c := f.c
	c.cbs = append(c.cbs, func() {
		if c.err != nil {
			child.fail(c.err)
			return
		}
		inner := fn(c.v)
		inner.check()
		inner.c.onReady(func() {
			if inner.c.err != nil {
				child.fail(inner.c.err)
				return
			}
			child.fulfill(1)
		})
	})
	return Future{child}
}

// Drop discards the value, viewing the future as value-less. The returned
// Future shares the receiver's readiness (and propagates its failure).
func (f FutureV[T]) Drop() Future {
	f.check()
	if f.inline {
		return f.e.ReadyFuture()
	}
	c := f.c
	if c.ready {
		if c.err != nil {
			return Future{&c.cell}
		}
		return c.eng.ReadyFuture()
	}
	child := c.eng.newCell()
	c.cbs = append(c.cbs, func() {
		if c.err != nil {
			child.fail(c.err)
			return
		}
		child.fulfill(1)
	})
	return Future{child}
}

// newCellV allocates a value cell with one outstanding dependency.
func newCellV[T any](e *Engine) *cellV[T] {
	e.Stats.CellAllocs++
	return &cellV[T]{cell: cell{eng: e, deps: 1}}
}

// NewFutureV allocates a value-carrying future plus its producer hooks:
// the value is stored through the returned pointer and the cell is
// resolved through the handle.
func NewFutureV[T any](e *Engine) (FutureV[T], *T, FulfillHandle) {
	c := newCellV[T](e)
	return FutureV[T]{c: c}, &c.v, FulfillHandle{&c.cell}
}

// NewReadyFutureV allocates an already-ready future carrying v.
func NewReadyFutureV[T any](e *Engine, v T) FutureV[T] {
	c := newCellV[T](e)
	c.v = v
	c.fulfill(1)
	return FutureV[T]{c: c}
}

// FailedFutureV allocates an already-resolved future carrying err — the
// eager form of failure notification, used when an operation is rejected
// at initiation (e.g. targeting a peer already declared down).
func FailedFutureV[T any](e *Engine, err error) FutureV[T] {
	c := newCellV[T](e)
	c.fail(err)
	return FutureV[T]{c: c}
}

// FulfillHandle resolves a dependency on an internal cell without exposing
// the cell type. Like every cell mutation it must run on the owning rank's
// goroutine, inside the progress engine or at an eager initiation point.
type FulfillHandle struct {
	c *cell
}

// Fulfill resolves one dependency immediately.
func (h FulfillHandle) Fulfill() { h.c.fulfill(1) }

// Fail resolves the cell immediately with err (a no-op if the cell is
// already resolved).
func (h FulfillHandle) Fail(err error) { h.c.fail(err) }

// Defer enqueues the resolution on the owning engine's deferred-
// notification queue, to fire at the next progress call.
func (h FulfillHandle) Defer() { h.c.eng.deferFulfill(h.c) }
