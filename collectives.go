package gupcxx

import (
	"encoding/binary"
	"fmt"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Collectives over the world: barrier, broadcast, exchange (allgather),
// and reductions. These are SPMD-synchronous conveniences built on active
// messages; every rank must call each collective in the same order (the
// usual single-phase matching rule). They are not on the paper's measured
// paths — the applications use them for setup — so the implementation
// favours clarity: a dissemination barrier and linear broadcast/gather.
//
// Each primitive collective (barrier, broadcast, exchange — world and
// team) runs through the unified pipeline as one OpColl operation whose
// data movement is the blocking protocol itself: no completion requests,
// so the pipeline books it as initiated and eagerly completed, and the
// per-family counters surface collective activity alongside the other
// families. Composed collectives (reductions, ExchangePtr) count through
// the primitives they invoke.

// collOp runs one blocking collective protocol through the unified
// pipeline, then ships whatever the protocol left staged: a wait whose
// condition already holds returns without progress, so a rank's last
// token (its final barrier round, say) would otherwise sit in its sender's
// batch while the peer waits for it.
func collOp(r *Rank, protocol func()) {
	r.eng.Initiate(core.OpDesc{Kind: core.OpColl, Local: true, Move: protocol}, nil)
	r.ep.Flush()
}

// collective op kinds, carried in Msg.A1.
const (
	collBarrier uint64 = iota
	collBcast
	collGather
)

// collKey identifies one collective sub-step on the receiving rank.
type collKey struct {
	kind  uint64
	seq   uint64
	round uint32
}

// collState is a rank's collective matching table. It is mutated only on
// the owning rank's goroutine (the AM handler runs during its Poll).
type collState struct {
	inbox      map[collKey][]gasnet.Msg
	barrierSeq uint64
	bcastSeq   uint64
	gatherSeq  uint64
}

func newCollState() *collState {
	return &collState{inbox: make(map[collKey][]gasnet.Msg)}
}

// handleColl files an inbound collective message under its key.
func handleColl(ep *gasnet.Endpoint, m *gasnet.Msg) {
	r := rankOf(ep)
	k := collKey{kind: m.A1, seq: m.A2, round: uint32(m.A3)}
	if m.A1 == collGather {
		// World-gather messages carry the contribution's origin rank in
		// A3, not a round number; they all match under round 0. Team
		// collectives use disjoint kinds (team.key), so this cannot
		// misfile a team message.
		k.round = 0
	}
	// Payload slices from cross-node delivery alias the wire buffer, which
	// the queue owns only until the next drain; copy for safekeeping.
	if len(m.Payload) > 0 {
		p := make([]byte, len(m.Payload))
		copy(p, m.Payload)
		m.Payload = p
	}
	r.coll.inbox[k] = append(r.coll.inbox[k], *m)
}

// waitColl spins progress until at least n messages are filed under k,
// then removes and returns them. waitingOn reports the world ranks whose
// tokens this wait still depends on (evaluated lazily — only consulted
// when a peer is down and the wait is unsatisfied): a collective cannot
// outlive the participants it depends on, so if one of THOSE ranks is
// declared down the rank aborts (unwound by Run into an error wrapping
// ErrPeerUnreachable) instead of spinning forever on tokens that will
// never arrive. A down rank the wait does NOT depend on is no reason to
// abort: dissemination and tree protocols are asymmetric, so a peer can
// legally complete the final collective and depart this world while we
// are still mid-protocol waiting on somebody else. (If our wait depends
// on the departed rank only transitively, the rank we depend on directly
// observes the death as its own direct dependency and aborts; its
// departure then surfaces here as a direct dependency on a down rank —
// aborts cascade along the token chain.)
func (r *Rank) waitColl(k collKey, n int, waitingOn func() []int) []gasnet.Msg {
	r.spinWait(func() bool {
		if len(r.coll.inbox[k]) >= n {
			return true
		}
		if r.ep.AnyPeerDown() {
			// The down flag is raised asynchronously (goodbye frames and
			// liveness sweeps run on the transport's goroutines), so it can
			// become visible while tokens the departed peer sent BEFORE
			// leaving still sit undelivered in the poll queue. A graceful
			// departure drains its sends before announcing itself (see
			// World.drainWire), so those tokens are already local: drain
			// progress to idle and re-check before concluding the
			// collective is torn.
			for r.Progress() > 0 {
			}
			if len(r.coll.inbox[k]) >= n {
				return true
			}
			for _, dep := range waitingOn() {
				if r.ep.PeerDown(dep) {
					abortRank(fmt.Errorf("collective aborted, rank(s) %v unreachable: %w",
						r.ep.DownPeers(), ErrPeerUnreachable))
				}
			}
		}
		return false
	})
	msgs := r.coll.inbox[k]
	delete(r.coll.inbox, k)
	return msgs
}

// depOn returns a waitingOn callback for a wait with one fixed
// dependency.
func depOn(rank int) func() []int {
	return func() []int { return []int{rank} }
}

// Barrier blocks until every rank has entered the barrier, driving the
// progress engine while waiting (a dissemination barrier: ceil(log2 N)
// rounds of token exchange).
func (r *Rank) Barrier() {
	collOp(r, r.barrier)
}

func (r *Rank) barrier() {
	n := r.N()
	seq := r.coll.barrierSeq
	r.coll.barrierSeq++
	if n == 1 {
		return
	}
	me := r.Me()
	for k, dist := 0, 1; dist < n; k, dist = k+1, dist*2 {
		peer := (me + dist) % n
		r.ep.Send(peer, gasnet.Msg{
			Handler: hColl,
			A1:      collBarrier,
			A2:      seq,
			A3:      uint64(k),
		})
		// This round's token comes from the mirror-image peer.
		r.waitColl(collKey{collBarrier, seq, uint32(k)}, 1, depOn((me-dist+n)%n))
	}
}

// BroadcastBytes distributes data from the root rank to all ranks,
// returning each rank's copy. Non-root ranks ignore their data argument.
func (r *Rank) BroadcastBytes(root int, data []byte) []byte {
	var out []byte
	collOp(r, func() { out = r.broadcastBytes(root, data) })
	return out
}

func (r *Rank) broadcastBytes(root int, data []byte) []byte {
	seq := r.coll.bcastSeq
	r.coll.bcastSeq++
	if r.N() == 1 {
		return data
	}
	if r.Me() == root {
		for t := 0; t < r.N(); t++ {
			if t == root {
				continue
			}
			r.ep.Send(t, gasnet.Msg{
				Handler: hColl,
				A1:      collBcast,
				A2:      seq,
				Payload: data,
			})
		}
		return data
	}
	msgs := r.waitColl(collKey{collBcast, seq, 0}, 1, depOn(root))
	return msgs[0].Payload
}

// BroadcastU64 distributes one word from the root rank to all ranks.
func (r *Rank) BroadcastU64(root int, v uint64) uint64 {
	var out uint64
	collOp(r, func() { out = r.broadcastU64(root, v) })
	return out
}

func (r *Rank) broadcastU64(root int, v uint64) uint64 {
	seq := r.coll.bcastSeq
	r.coll.bcastSeq++
	if r.N() == 1 {
		return v
	}
	if r.Me() == root {
		for t := 0; t < r.N(); t++ {
			if t == root {
				continue
			}
			r.ep.Send(t, gasnet.Msg{Handler: hColl, A1: collBcast, A2: seq, A3: 0, A0: v})
		}
		return v
	}
	msgs := r.waitColl(collKey{collBcast, seq, 0}, 1, depOn(root))
	return msgs[0].A0
}

// ExchangeU64 performs an allgather of one word per rank: the result's
// i'th element is rank i's contribution. Every rank receives the full
// vector.
//
// Contributions climb a binomial tree rooted at rank 0 (each message
// carries its origin rank in A3); an interior vertex forwards its whole
// subtree to its parent between two progress calls, so on the UDP conduit
// the send rule (DESIGN.md §7.3) packs the forward into one datagram
// instead of one per contribution. The root then broadcasts the packed
// vector. Versus the previous all-to-all this is O(N log N) messages
// rather than O(N²).
func (r *Rank) ExchangeU64(v uint64) []uint64 {
	var out []uint64
	collOp(r, func() { out = r.exchangeU64(v) })
	return out
}

func (r *Rank) exchangeU64(v uint64) []uint64 {
	n := r.N()
	seq := r.coll.gatherSeq
	r.coll.gatherSeq++
	out := make([]uint64, n)
	me := r.Me()
	out[me] = v
	if n == 1 {
		return out
	}

	// span is the width of me's subtree: ranks [me, me+span) ∩ [0, n).
	// For the root it is n; otherwise the lowest set bit of me.
	span := n
	if me != 0 {
		span = me & -me
	}
	expect := min(me+span, n) - me - 1

	// Gather the subtree's contributions (origin, value), own first.
	origins := make([]int, 1, expect+1)
	values := make([]uint64, 1, expect+1)
	origins[0], values[0] = me, v
	if expect > 0 {
		// The wait's direct dependencies are the children whose subtree
		// still has a contribution outstanding: every message physically
		// arrives from a direct child (subtrees are forwarded whole), so a
		// child whose range is complete no longer matters to this wait even
		// if it has since departed.
		key := collKey{collGather, seq, 0}
		deps := func() []int {
			seen := make(map[int]bool, len(r.coll.inbox[key]))
			for _, m := range r.coll.inbox[key] {
				seen[int(m.A3)] = true
			}
			var missing []int
			for d := 1; d < span; d *= 2 {
				c := me + d
				if c >= n {
					break
				}
				for o := c; o < min(c+d, n); o++ {
					if !seen[o] {
						missing = append(missing, c)
						break
					}
				}
			}
			return missing
		}
		msgs := r.waitColl(key, expect, deps)
		seen := make(map[uint64]bool, len(msgs))
		for _, m := range msgs {
			origin := m.A3
			if int(origin) >= n {
				panic(fmt.Sprintf("gupcxx: allgather contribution from out-of-range rank %d", origin))
			}
			if seen[origin] {
				panic(fmt.Sprintf("gupcxx: duplicate allgather contribution from rank %d", origin))
			}
			seen[origin] = true
			origins = append(origins, int(origin))
			values = append(values, m.A0)
		}
	}

	if me != 0 {
		// Forward the whole subtree to the parent: on the UDP conduit
		// these are staged together and leave as a single datagram.
		parent := me - span
		for i := range origins {
			r.ep.Send(parent, gasnet.Msg{
				Handler: hColl,
				A1:      collGather,
				A2:      seq,
				A0:      values[i],
				A3:      uint64(origins[i]),
			})
		}
	} else {
		for i := range origins {
			out[origins[i]] = values[i]
		}
	}

	// Root broadcasts the packed vector; everyone decodes it.
	var packed []byte
	if me == 0 {
		packed = make([]byte, 8*n)
		for i, w := range out {
			binary.LittleEndian.PutUint64(packed[8*i:], w)
		}
	}
	// Call the protocol directly: the broadcast leg is part of this one
	// allgather operation, not a second OpColl initiation.
	packed = r.broadcastBytes(0, packed)
	if me != 0 {
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(packed[8*i:])
		}
	}
	return out
}

// ExchangePtr performs an allgather of one global pointer per rank: the
// standard idiom for publishing each rank's allocation to all peers. The
// pointers travel in the wire encoding (EncodePtr), so the exchange works
// identically whether the peers share this address space or not; a word
// that fails decode-side validation — a stale epoch's pointer, a
// corrupted frame — aborts the rank with the decode error rather than
// materializing a pointer into the wrong memory.
func ExchangePtr[T any](r *Rank, p GlobalPtr[T]) []GlobalPtr[T] {
	words := r.ExchangeU64(EncodePtr(r, p))
	out := make([]GlobalPtr[T], len(words))
	for i, w := range words {
		dp, err := DecodePtr[T](r, w)
		if err != nil {
			abortRank(fmt.Errorf("gupcxx: ExchangePtr word from rank %d: %w", i, err))
		}
		out[i] = dp
	}
	return out
}

// ReduceU64 combines one word from every rank with op (which must be
// associative and commutative) and returns the result on every rank — an
// allreduce.
func (r *Rank) ReduceU64(v uint64, op func(a, b uint64) uint64) uint64 {
	words := r.ExchangeU64(v)
	acc := words[0]
	for _, w := range words[1:] {
		acc = op(acc, w)
	}
	return acc
}

// SumU64 returns the sum over all ranks of v.
func (r *Rank) SumU64(v uint64) uint64 {
	return r.ReduceU64(v, func(a, b uint64) uint64 { return a + b })
}

// MaxU64 returns the maximum over all ranks of v.
func (r *Rank) MaxU64(v uint64) uint64 {
	return r.ReduceU64(v, func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	})
}

// MinU64 returns the minimum over all ranks of v.
func (r *Rank) MinU64(v uint64) uint64 {
	return r.ReduceU64(v, func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	})
}
