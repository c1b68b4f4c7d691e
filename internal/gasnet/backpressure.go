package gasnet

import (
	"errors"
	"fmt"
	"time"

	"gupcxx/internal/obs"
)

// ErrBackpressure is the sentinel for admission refused because the
// target peer's send window is full: the peer is alive but cannot absorb
// more traffic right now. Under the fail-fast policy it is returned
// immediately; under the bounded-block policy (the default) it is
// returned only after waiting out the admission bound without a credit.
// The concrete error is a *BackpressureError carrying the peer rank; test
// with errors.Is(err, ErrBackpressure).
var ErrBackpressure = errors.New("gasnet: peer send window full (backpressure)")

// BackpressureError is the typed form of ErrBackpressure: it records
// which peer's window was full, so callers can shed or reroute per
// destination. errors.Is(err, ErrBackpressure) matches it.
type BackpressureError struct {
	Peer int
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("gasnet: send window to rank %d full (backpressure)", e.Peer)
}

// Is makes errors.Is(err, ErrBackpressure) true for every
// *BackpressureError regardless of peer.
func (e *BackpressureError) Is(target error) bool { return target == ErrBackpressure }

// AdmitSend is credit-based admission for one operation targeting rank
// `to`: it answers "may this rank inject toward that peer right now?"
// before any buffer is staged or sequence number assigned. nil means
// admitted. A down peer yields ErrPeerUnreachable; a full congestion
// window yields *BackpressureError — immediately under the fail-fast
// policy, or after a bounded wait for a credit under the default
// blocking policy (the wait is the smaller of Config.BackpressureWait
// and the caller's own deadline budget, passed as maxWait; maxWait <= 0
// means no caller bound).
//
// Admission is an occupancy check, not a reservation: coalescing can pack
// several admitted messages into one datagram, so a reserved-credit
// scheme would leak credits. The residual over-admission is bounded by
// the coalescer's own (liveness-aware) window block when it seals the
// staged frames (reliability.seal).
//
// Conduits without a reliability layer (SMP, PSHM, SIM) and self-sends
// have no window to fill and are always admitted.
func (ep *Endpoint) AdmitSend(to int, maxWait time.Duration) error {
	d := ep.dom
	if ep.host == nil || to == ep.rank || to < 0 || to >= d.cfg.Ranks {
		return nil
	}
	if ep.PeerDown(to) {
		d.downPeerFails.Add(1)
		return ErrPeerUnreachable
	}
	return d.rel.admit(ep.rank, to, maxWait)
}

// admit implements AdmitSend's window check against the from→to pair.
//
// Admission outcomes double as the ops plane's backpressure signal, as
// EDGES rather than levels: the first refused admission on an idle pair
// emits EvBackpressureOn, the first successful one afterwards emits
// EvBackpressureOff, and everything in between is silent (p.bpBlocked
// tracks the edge under p.mu). A pair that times out of the bounded
// block stays "on" — relief is only ever declared by an admission that
// actually went through.
func (r *reliability) admit(from, to int, maxWait time.Duration) error {
	p := r.d.peer(from, to)
	p.mu.Lock()
	if len(p.inflight) < p.cwnd {
		r.noteRelief(p, from, to)
		p.mu.Unlock()
		return nil
	}
	if r.d.cfg.Backpressure == BackpressureFailFast {
		r.noteOnset(p, from, to)
		p.mu.Unlock()
		r.d.backpressureFails.Add(1)
		return &BackpressureError{Peer: to}
	}
	r.noteOnset(p, from, to)
	// Bounded block: wait for a credit, a Down transition, or the bound.
	// The caller is the owner of rank from, and the acks that free credit
	// arrive on its socket: it waits in that socket (host.wait), stepping
	// the acks itself, so the wait cannot deadlock the pair against itself
	// and ends one ack after the credit frees. A Down transition wakes it.
	// Deadlines use the real clock: this path is already off the fast path
	// by definition.
	h := r.d.eps[from].host
	wait := r.d.cfg.BackpressureWait
	if maxWait > 0 && maxWait < wait {
		wait = maxWait
	}
	deadline := time.Now().Add(wait)
	for {
		if r.closed.Load() {
			// Racing shutdown: admit; send will drop the datagram.
			p.mu.Unlock()
			return nil
		}
		if p.lc.state == peerDown {
			// Down supersedes backpressure; clear the edge without a
			// relief event (the liveness transition tells the story).
			p.bpBlocked = false
			p.mu.Unlock()
			r.d.downPeerFails.Add(1)
			return ErrPeerUnreachable
		}
		if len(p.inflight) < p.cwnd {
			r.noteRelief(p, from, to)
			p.mu.Unlock()
			return nil
		}
		p.mu.Unlock()
		left := time.Until(deadline)
		if left <= 0 {
			r.d.backpressureFails.Add(1)
			return &BackpressureError{Peer: to}
		}
		h.wait(min(left, parkTimeout))
		p.mu.Lock()
	}
}

// noteOnset records the idle→blocked backpressure edge. Caller holds p.mu.
func (r *reliability) noteOnset(p *peer, from, to int) {
	if p.bpBlocked {
		return
	}
	p.bpBlocked = true
	r.d.emit(obs.EvBackpressureOn, from, to, int64(len(p.inflight)), int64(p.cwnd))
}

// noteRelief records the blocked→idle backpressure edge. Caller holds p.mu.
func (r *reliability) noteRelief(p *peer, from, to int) {
	if !p.bpBlocked {
		return
	}
	p.bpBlocked = false
	r.d.emit(obs.EvBackpressureOff, from, to, int64(len(p.inflight)), int64(p.cwnd))
}

// FlowState is a snapshot of one pair's congestion-control state, for
// observability and tests: the smoothed RTT estimate, the current
// retransmission timeout, the adaptive window and its occupancy in
// datagrams and bytes, and the receive side's reorder-buffer occupancy
// against its byte budget.
type FlowState struct {
	SRTT          time.Duration
	RTO           time.Duration
	Window        int
	InFlight      int
	InFlightBytes int // bytes retained in the retransmission queue
	ReorderBytes  int // bytes parked out-of-order on the receive side
	ReorderBudget int // Config.RelReorderBytes bound on ReorderBytes
}

// FlowState reports rank local's congestion state toward peer. The zero
// FlowState is returned for conduits without a reliability layer, for a
// local rank hosted by another process, for self-queries, and for
// out-of-range ranks (there is no flow to report).
func (d *Domain) FlowState(local, peer int) FlowState {
	p := d.peer(local, peer)
	if p == nil || local == peer {
		return FlowState{}
	}
	p.mu.Lock()
	fs := FlowState{
		SRTT:          time.Duration(p.srtt),
		RTO:           time.Duration(p.rto),
		Window:        p.cwnd,
		InFlight:      len(p.inflight),
		ReorderBytes:  p.parkedBytes,
		ReorderBudget: d.cfg.RelReorderBytes,
	}
	for i := range p.inflight {
		fs.InFlightBytes += len(p.inflight[i].wb.b)
	}
	p.mu.Unlock()
	return fs
}
