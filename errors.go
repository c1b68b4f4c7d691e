package gupcxx

import (
	"errors"
	"fmt"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Failure is a value in this runtime, not a control-flow event: an
// asynchronous operation that cannot complete resolves its futures and
// promises with an error instead of hanging or crashing the process.
// Wait() still returns the value (zero on failure) for compatibility;
// callers that care inspect Future.Err / WaitErr, or receive the error
// through their promise.

// Sentinel errors surfaced by the operation pipeline. They originate in
// the internal layers (or here), so errors.Is works across the API
// boundary.
var (
	// ErrPeerUnreachable resolves operations targeting a rank the
	// substrate's liveness detector has declared down (UDP conduit):
	// retransmission exhaustion or heartbeat silence beyond DownAfter.
	ErrPeerUnreachable = gasnet.ErrPeerUnreachable

	// ErrDeadlineExceeded resolves operations whose OpDeadline (or
	// descriptor deadline) elapsed before the substrate acknowledgment.
	// It also matches context.DeadlineExceeded under errors.Is, so
	// stdlib-style timeout classification works unchanged.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded

	// ErrBackpressure resolves operations refused admission because the
	// target rank's send window stayed full: the peer is alive but
	// overloaded. The concrete error is a *BackpressureError carrying the
	// peer rank; match the class with errors.Is(err, ErrBackpressure) and
	// extract the rank with errors.As.
	ErrBackpressure = gasnet.ErrBackpressure

	// ErrBadAddress resolves wire operations the target rank refused
	// because the requested offset or length fell outside its shared
	// segment (or an atomic carried an invalid op code). It is the
	// initiator-side face of the decode-side bounds validation every
	// process-per-rank world applies to untrusted wire input; the target
	// counts the refusal (Stats.BadAddrDrops) and keeps running.
	ErrBadAddress = gasnet.ErrBadAddress
)

// ErrNotWireEncodable resolves operations that would require shipping a
// Go closure to another process: closure RPC (RPC, RPCCall,
// RPCFireAndForget) and remote completions built from closures
// (RemoteRPC, RemoteRPCOn) target ranks outside this address space only
// in wire-encodable form. A single-process UDP world sends such a
// message over the wire with a handle to the closure, which only that
// address space can resolve; in a multiproc world the operations fail
// loudly — eagerly, at initiation. Use the registered-handler forms
// (RPCWire, RPCWireContinue, RputNotify) instead: their invocations are
// data, not code.
var ErrNotWireEncodable = errors.New(
	"gupcxx: operation carries a closure, which cannot cross process boundaries; use a registered wire handler")

// BackpressureError is the typed form of ErrBackpressure, recording which
// peer's send window was full.
type BackpressureError = gasnet.BackpressureError

// RemoteError reports that a remotely-executed procedure (wire RPC
// handler or shipped closure) panicked on the target rank. The panic is
// recovered there — the target keeps running — and its text travels back
// in the reply frame to resolve the initiator's future.
type RemoteError struct {
	// Rank is the rank on which the procedure panicked.
	Rank int
	// Msg is the serialized panic value.
	Msg string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("gupcxx: remote procedure panicked on rank %d: %s", e.Rank, e.Msg)
}

// ContinuationError reports that an OpContinue callback panicked inside
// the progress engine. The panic is recovered — the progress loop keeps
// running, the panic is counted (core Stats.ContinuationPanics) — and
// any futures or promises composed alongside the continuation resolve
// with this value, the continuation-side mirror of *RemoteError.
type ContinuationError = core.ContinuationError

// contain runs fn, converting a panic into a *RemoteError attributed to
// rank. This is the containment boundary for user code executed from a
// progress engine: the panic must not unwind into the Poll loop.
func contain(rank int, fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &RemoteError{Rank: rank, Msg: fmt.Sprint(p)}
		}
	}()
	fn()
	return nil
}

// rankAbort carries an error out of a blocking protocol that cannot
// return one (collectives, spin-waits): the rank's SPMD function is
// unwound via panic and Run converts the abort into an ordinary error,
// preserving errors.Is/As chains.
type rankAbort struct{ err error }

// abortRank unwinds the current rank with err; recovered by Run.
func abortRank(err error) {
	panic(rankAbort{err: err})
}
