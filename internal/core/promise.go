package core

// Promise is the producer side of a value-less asynchronous result. A
// promise efficiently tracks any number of value-less operations as a
// single dependency counter: registering an operation increments the count
// and each completion decrements it (§II-A). Finalize closes registration
// and returns the future that readies when the count drains.
//
// Like UPC++'s promise<>, a new promise carries one implicit dependency
// that Finalize resolves.
type Promise struct {
	c         *cell
	finalized bool
}

// NewPromise allocates a promise on engine e with one unresolved
// dependency (the finalization dependency).
func NewPromise(e *Engine) *Promise {
	return &Promise{c: e.newCell()}
}

// Require registers n additional expected completions. It panics after
// Finalize, matching UPC++'s contract.
func (p *Promise) Require(n int) {
	if p.finalized {
		panic("gupcxx: Require on finalized promise")
	}
	if n < 0 {
		panic("gupcxx: negative Require")
	}
	p.c.require(int32(n))
}

// Fulfill resolves n previously-required completions.
func (p *Promise) Fulfill(n int) {
	if n < 0 {
		panic("gupcxx: negative Fulfill")
	}
	p.c.fulfill(int32(n))
}

// FulfillError resolves one previously-required completion as a failure:
// the dependency is consumed like Fulfill(1), and the first error recorded
// this way is carried by the promise's future (Future.Err) once the count
// drains. The promise therefore still waits for its other registered
// operations — "everything finished, at least one failed" — unlike a
// future's fail, which short-circuits.
func (p *Promise) FulfillError(err error) { p.c.fulfillErr(err) }

// Err returns the first failure recorded on the promise (via
// FulfillError), or nil. It may be non-nil before the future readies.
func (p *Promise) Err() error { return p.c.err }

// Finalize closes registration and returns the promise's future, resolving
// the implicit construction dependency. Finalize is idempotent.
func (p *Promise) Finalize() Future {
	if !p.finalized {
		p.finalized = true
		p.c.fulfill(1)
	}
	return Future{p.c}
}

// Finalized reports whether Finalize has been called.
func (p *Promise) Finalized() bool { return p.finalized }

// Pending reports the number of unresolved dependencies (including the
// finalization dependency while registration is open). Intended for tests
// and diagnostics.
func (p *Promise) Pending() int { return int(p.c.deps) }

// PromiseV is the producer side of an asynchronous result carrying one
// value of type T. Unlike a value-less Promise it can track only a single
// value-producing operation (§III-B) — the limitation that motivates the
// paper's fetch-to-memory atomics.
type PromiseV[T any] struct {
	c         *cellV[T]
	finalized bool
	bound     bool
}

// NewPromiseV allocates a value-carrying promise with one unresolved
// dependency.
func NewPromiseV[T any](e *Engine) *PromiseV[T] {
	return &PromiseV[T]{c: newCellV[T](e)}
}

// Bind registers the single value-producing operation. It panics if a
// second operation is registered or if the promise is finalized.
func (p *PromiseV[T]) Bind() {
	if p.finalized {
		panic("gupcxx: Bind on finalized promise")
	}
	if p.bound {
		panic("gupcxx: value promise can track only one value-producing operation")
	}
	p.bound = true
	p.c.require(1)
}

// Deliver stores the operation's value and resolves its dependency.
func (p *PromiseV[T]) Deliver(v T) {
	p.c.v = v
	p.c.fulfill(1)
}

// DeliverDeferred stores the value now but defers the readiness
// notification to the next progress call (legacy deferred semantics).
func (p *PromiseV[T]) DeliverDeferred(v T) {
	p.c.v = v
	p.c.eng.deferFulfill(&p.c.cell)
}

// Err returns the failure recorded on the promise, or nil.
func (p *PromiseV[T]) Err() error { return p.c.err }

// Finalize closes registration and returns the value future.
func (p *PromiseV[T]) Finalize() FutureV[T] {
	if !p.finalized {
		p.finalized = true
		p.c.fulfill(1)
	}
	return FutureV[T]{c: p.c}
}

// Finalized reports whether Finalize has been called.
func (p *PromiseV[T]) Finalized() bool { return p.finalized }
