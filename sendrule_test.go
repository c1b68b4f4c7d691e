package gupcxx_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"gupcxx"
	"gupcxx/internal/gasnet"
)

// The send rule (DESIGN.md §7.3) stages a UDP send until its rank's next
// progress call. These tests pin the two places a rank stops calling
// progress with a send it owes a peer: the end of a collective, and the
// end of a process world's Run.

// newProcessPair builds both halves of a 2-rank process world inside this
// test process: two Worlds, each hosting one rank on its own loopback
// socket, as the bootstrap exchange would hand them out. Each World's
// domain counts only its own rank's traffic. The caller closes both.
func newProcessPair(t *testing.T) [2]*gupcxx.World {
	t.Helper()
	var conns [2]*net.UDPConn
	peers := make([]netip.AddrPort, 2)
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		peers[i] = c.LocalAddr().(*net.UDPAddr).AddrPort()
	}
	var ws [2]*gupcxx.World
	for i := range ws {
		w, err := gupcxx.NewWorld(gupcxx.Config{
			Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 12,
			Multiproc: true, Self: i, Peers: peers, SelfConn: conns[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// TestBarrierShipsLastToken: a barrier whose wait is already satisfied on
// entry returns without a progress call, so the rank's own token must be
// shipped on the way out — otherwise the peer waits for it while this
// rank computes. Rank 0 takes rank 1's token before entering each
// barrier, and its own token must have left by the time Barrier returns.
func TestBarrierShipsLastToken(t *testing.T) {
	ws := newProcessPair(t)
	defer ws[0].Close()
	defer ws[1].Close()
	const rounds = 200
	entering := make(chan struct{}, 1)
	errs := make(chan error, 2)
	go func() {
		errs <- ws[1].Run(func(r *gupcxx.Rank) {
			for i := 0; i < rounds; i++ {
				entering <- struct{}{}
				r.Barrier()
			}
		})
	}()
	var late atomic.Int64
	go func() {
		errs <- ws[0].Run(func(r *gupcxx.Rank) {
			d := ws[0].Domain()
			for i := 0; i < rounds; i++ {
				<-entering
				for start := time.Now(); time.Since(start) < 200*time.Microsecond; {
					r.Progress()
				}
				before := d.Stats().DatagramsSent
				r.Barrier()
				if d.Stats().DatagramsSent == before {
					late.Add(1)
				}
			}
		})
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := late.Load(); n != 0 {
		t.Errorf("%d of %d barriers returned with this rank's token still staged", n, rounds)
	}
}

// TestCloseShipsStagedSends: a process world's rank that sends and
// returns from Run at once must not leave the send staged — Run drains
// the wire before the world closes, so the message is delivered and acked
// while the sender is still up. (The gasnet package's test of the same
// name covers Domain.Close itself.)
func TestCloseShipsStagedSends(t *testing.T) {
	ws := newProcessPair(t)
	defer ws[0].Close()
	defer ws[1].Close()
	var got atomic.Int64
	bump := ws[0].RegisterRPC(func(*gupcxx.Rank, []byte) []byte { return nil })
	ws[1].RegisterRPC(func(*gupcxx.Rank, []byte) []byte {
		got.Add(1)
		return nil
	})
	served := make(chan error, 1)
	go func() {
		served <- ws[1].Run(func(r *gupcxx.Rank) {
			for deadline := time.Now().Add(10 * time.Second); got.Load() == 0 && time.Now().Before(deadline); {
				r.Progress()
			}
		})
	}()
	if err := ws[0].Run(func(r *gupcxx.Rank) {
		gupcxx.RPCWire(r, 1, bump, []byte("last words"))
	}); err != nil {
		t.Fatal(err)
	}
	// Run has returned and the world is still open: the request must
	// already be on the wire and acknowledged.
	d := ws[0].Domain()
	if n := d.Stats().DatagramsSent; n != 1 {
		t.Errorf("Run returned with %d datagrams sent, want 1", n)
	}
	if fs := d.FlowState(0, 1); fs.InFlight != 0 {
		t.Errorf("Run returned with %d frames unacknowledged", fs.InFlight)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := got.Load(); n != 1 {
		t.Errorf("the request reached its handler %d times, want 1", n)
	}
}

// TestRoundTripAckRidesNextRequest: a blocking remote op's reply is
// acknowledged by the initiator's next request, not by an ack datagram of
// its own (DESIGN.md §8.2). Rank 0 runs 300 blocking ops of each remote
// family against rank 1, which serves from its barrier wait; every op
// resolves with its value, and every update lands exactly once. On a
// clean wire, outside the race detector, the initiator also sends at most
// one standalone ack per twenty ops, piggybacks at least nineteen in
// twenty, and neither rank retransmits. Under a fault preset (make
// test-fault) only the loss-tolerant half runs: every op resolves, and no
// peer is declared down.
func TestRoundTripAckRidesNextRequest(t *testing.T) {
	ws := newProcessPair(t)
	defer ws[0].Close()
	defer ws[1].Close()
	counts := !raceEnabled && os.Getenv("GUPCXX_UDP_FAULT") == ""
	var echo gupcxx.RPCHandlerID
	for _, w := range ws {
		echo = w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte { return args })
	}
	join := func(r *gupcxx.Rank) []gupcxx.GlobalPtr[uint64] {
		words := gupcxx.ExchangePtr(r, gupcxx.New[uint64](r))
		r.Barrier()
		return words
	}
	served := make(chan error, 1)
	go func() {
		served <- ws[1].Run(func(r *gupcxx.Rank) {
			join(r)
			r.Barrier() // rank 1 answers rank 0's ops from this wait
		})
	}()

	const perFamily = 300
	var before, after gasnet.Stats
	ops := 0
	err := ws[0].Run(func(r *gupcxx.Rank) {
		dst := join(r)[1]
		defer r.Barrier()
		ad := gupcxx.NewAtomicDomain[uint64](r)
		var args [8]byte
		families := []struct {
			name string
			op   func(i int) error
		}{
			{"Rput", func(i int) error { return gupcxx.Rput(r, uint64(i), dst).Op.WaitErr() }},
			{"RputBulk", func(i int) error {
				src := [1]uint64{uint64(i)}
				return gupcxx.RputBulk(r, src[:], dst).Op.WaitErr()
			}},
			{"Rget", func(int) error {
				if v, err := gupcxx.Rget(r, dst).WaitErr(); err != nil || v != perFamily-1 {
					return fmt.Errorf("read %d (%v), want %d", v, err, perFamily-1)
				}
				return nil
			}},
			{"FetchAdd", func(i int) error {
				if v, err := ad.FetchAdd(dst, 1).WaitErr(); err != nil || v != uint64(perFamily-1+i) {
					return fmt.Errorf("old value %d (%v), want %d", v, err, perFamily-1+i)
				}
				return nil
			}},
			{"Add", func(int) error { return ad.Add(dst, 1).Op.WaitErr() }},
			{"RPCWire", func(i int) error {
				binary.LittleEndian.PutUint64(args[:], uint64(i))
				rep, err := gupcxx.RPCWire(r, 1, echo, args[:]).WaitErr()
				if err != nil || !bytes.Equal(rep, args[:]) {
					return fmt.Errorf("reply %x (%v), want %x", rep, err, args)
				}
				return nil
			}},
		}
		d := ws[0].Domain()
		before = d.Stats()
		for _, f := range families {
			for i := 0; i < perFamily; i++ {
				if err := f.op(i); err != nil {
					t.Errorf("%s %d: %v", f.name, i, err)
					return
				}
				ops++
			}
		}
		after = d.Stats()
		if v, err := gupcxx.Rget(r, dst).WaitErr(); err != nil || v != 3*perFamily-1 {
			t.Errorf("final word %d (%v), want %d: an update was lost or applied twice", v, err, 3*perFamily-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if n := w.Domain().Stats().PeersDown; n != 0 {
			t.Errorf("rank %d declared %d peers down", i, n)
		}
	}
	if !counts || t.Failed() {
		return
	}
	standalone := after.AcksStandalone - before.AcksStandalone
	piggybacked := after.AcksPiggybacked - before.AcksPiggybacked
	t.Logf("%d ops: initiator sent %d standalone acks, piggybacked %d", ops, standalone, piggybacked)
	if standalone*20 > int64(ops) {
		t.Errorf("initiator sent %d standalone acks for %d ops, want at most 1 in 20", standalone, ops)
	}
	if piggybacked*20 < int64(19*ops) {
		t.Errorf("initiator piggybacked %d acks for %d ops, want at least 19 in 20", piggybacked, ops)
	}
	for i, w := range ws {
		if n := w.Domain().Stats().Retransmits; n != 0 {
			t.Errorf("rank %d retransmitted %d frames on a clean wire", i, n)
		}
	}
}
