package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
	"gupcxx/internal/serial"
)

// The probes time single layers from outside, through their exported
// functions, with nothing else of the runtime underneath: a bare
// core.Engine with no substrate, a bare gasnet.Domain with no engine.
// They do not depend on the workload; every traced run repeats them so
// that each layer number sits beside the end-to-end numbers of the same
// process on the same host at the same time.

// perIter grows n until fn(n) runs for at least budget and returns that
// call's time per iteration in nanoseconds.
func perIter(budget time.Duration, fn func(n int)) float64 {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		el := time.Since(t0)
		if el >= budget || n >= 1<<30 {
			return float64(el) / float64(n)
		}
		grow := 2.0
		if el > 0 {
			grow = 1.2 * float64(budget) / float64(el)
		}
		if grow < 2 {
			grow = 2
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n) * grow)
	}
}

var (
	cxFuture = []core.Cx{core.OpFuture()}
	nopMove  = func() {}
)

const probeBatch = 512

// coreProbes drives a bare engine with no-op data movement.
func coreProbes(budget time.Duration, out map[string]float64) {
	local := core.OpDesc{Kind: core.OpRMA, Local: true, Move: nopMove}
	initiate := func(ver core.Version) float64 {
		e := core.NewEngine(0, ver)
		return perIter(budget, func(n int) {
			for i := 0; i < n; i++ {
				e.Initiate(local, cxFuture).Op.Wait()
			}
		})
	}
	out["core.initiate_eager_ns"] = initiate(core.Eager2021_3_6)
	out["core.initiate_defer_ns"] = initiate(core.Defer2021_3_6)

	// A remote op whose acknowledgment is delivered by the next poll: the
	// engine's whole asynchronous path, with the substrate reduced to a
	// closure.
	e := core.NewEngine(0, core.Eager2021_3_6)
	var ack func(error)
	e.SetPoller(func() int {
		if ack == nil {
			return 0
		}
		done := ack
		ack = nil
		done(nil)
		return 1
	})
	remote := core.OpDesc{Kind: core.OpRMA, Inject: func(_ func(any), done func(error)) { ack = done }}
	out["core.async_roundtrip_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			e.Initiate(remote, cxFuture).Op.Wait()
		}
	})

	whenAll := func(ver core.Version) float64 {
		e := core.NewEngine(0, ver)
		return perIter(budget, func(n int) {
			for done := 0; done < n; done += probeBatch {
				f := e.MakeFuture()
				for j := 0; j < probeBatch; j++ {
					f = e.WhenAll(f, e.Initiate(local, cxFuture).Op)
				}
				f.Wait()
			}
		})
	}
	out["core.whenall_eager_ns"] = whenAll(core.Eager2021_3_6)
	out["core.whenall_defer_ns"] = whenAll(core.Defer2021_3_6)

	e = core.NewEngine(0, core.Eager2021_3_6)
	out["core.promise_op_ns"] = perIter(budget, func(n int) {
		for done := 0; done < n; done += probeBatch {
			p := core.NewPromise(e)
			cx := []core.Cx{core.OpPromise(p)}
			for j := 0; j < probeBatch; j++ {
				e.Initiate(local, cx)
			}
			p.Finalize().Wait()
		}
	})

	e = core.NewEngine(0, core.Eager2021_3_6)
	out["core.progress_idle_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			e.Progress()
		}
	})
}

// idleSpin mirrors core.Engine.Idle: yield while the wait is short, park
// on the endpoint once it looks long.
const idleSpin = 128

// pollUntil drives ep's progress until cond holds, idling as a rank does.
func pollUntil(ep *gasnet.Endpoint, cond func() bool) {
	idle := 0
	for !cond() {
		if ep.Poll() > 0 {
			idle = 0
			continue
		}
		if idle++; idle < idleSpin {
			runtime.Gosched()
		} else {
			ep.Park()
		}
	}
}

// gasnetProbes times a bare two-endpoint domain.
func gasnetProbes(budget time.Duration, out map[string]float64) error {
	// AM injection and delivery across simulated nodes.
	sim, err := gasnet.NewDomain(gasnet.Config{
		Ranks: 2, Conduit: gasnet.SIM, RanksPerNode: 1, SimLatency: time.Nanosecond, SegmentBytes: 1 << 16,
	})
	if err != nil {
		return err
	}
	delivered := 0
	sim.RegisterHandler(gasnet.HandlerUserBase, func(*gasnet.Endpoint, *gasnet.Msg) { delivered++ })
	e0, e1 := sim.Endpoint(0), sim.Endpoint(1)
	out["gasnet.am_send_poll_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			want := delivered + 1
			e0.Send(1, gasnet.Msg{Handler: gasnet.HandlerUserBase})
			for delivered < want {
				e1.Poll()
			}
		}
	})

	seg := sim.Segment(0)
	off, err := seg.Alloc(8)
	if err != nil {
		return err
	}
	var word [8]byte
	out["gasnet.segment_copy_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			seg.CopyIn(off, word[:])
			seg.CopyOut(off, word[:])
		}
	})
	bulkOff, err := seg.Alloc(bulkWords * 8)
	if err != nil {
		return err
	}
	var bulk [bulkWords * 8]byte
	out["gasnet.segment_copy_1k_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			seg.CopyIn(bulkOff, bulk[:])
			seg.CopyOut(bulkOff, bulk[:])
		}
	})
	sim.Close()

	// Puts over real loopback sockets with reliability and liveness, both
	// endpoints in this process: the wire without the process boundary.
	udp, err := gasnet.NewDomain(gasnet.Config{Ranks: 2, Conduit: gasnet.UDP, SegmentBytes: 1 << 16})
	if err != nil {
		return err
	}
	defer udp.Close()
	dst, err := udp.Segment(1).Alloc(8)
	if err != nil {
		return err
	}
	u0, u1 := udp.Endpoint(0), udp.Endpoint(1)
	stop := make(chan struct{})
	served := make(chan struct{})
	go func() { // rank 1: serve until stop; waited for below
		defer close(served)
		pollUntil(u1, func() bool {
			select {
			case <-stop:
				return true
			default:
				return false
			}
		})
	}()
	acked := 0
	var putErr error
	onAck := func(err error) {
		if err != nil {
			putErr = err
		}
		acked++
	}
	out["gasnet.udp_put_rtt_us"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			want := acked + 1
			u0.PutRemote(1, dst, word[:], nil, onAck)
			pollUntil(u0, func() bool { return acked >= want })
		}
	}) / 1e3
	const burst = 64
	out["gasnet.udp_burst_put_us"] = perIter(budget, func(n int) {
		for done := 0; done < n; done += burst {
			want := acked + burst
			u0.BeginBurst()
			for j := 0; j < burst; j++ {
				u0.PutRemote(1, dst, word[:], nil, onAck)
			}
			u0.EndBurst()
			pollUntil(u0, func() bool { return acked >= want })
		}
	}) / 1e3
	close(stop)
	<-served
	if putErr != nil {
		return fmt.Errorf("gasnet probe: put failed: %w", putErr)
	}
	return nil
}

// serialProbe encodes and decodes a message the size of an 8-byte put
// request (handler, sender, four arguments, payload).
func serialProbe(budget time.Duration, out map[string]float64) {
	buf := make([]byte, 0, 64)
	var payload [8]byte
	var sink uint64
	out["serial.encode_decode_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			e := serial.NewEncoder(buf[:0])
			e.PutU8(1)
			e.PutU32(0)
			e.PutU64(uint64(i))
			e.PutU64(64)
			e.PutU64(0)
			e.PutU64(0)
			e.PutRaw(payload[:])
			d := serial.NewDecoder(e.Bytes())
			sink += uint64(d.U8()) + uint64(d.U32()) + d.U64() + d.U64() + d.U64() + d.U64() + uint64(len(d.Raw()))
		}
	})
	probeSink = sink
}

var probeSink uint64

func clockProbe(budget time.Duration, out map[string]float64) {
	base := time.Now()
	var sink time.Duration
	out["baseline.clock_read_ns"] = perIter(budget, func(n int) {
		for i := 0; i < n; i++ {
			sink += time.Since(base)
		}
	})
	probeSink += uint64(sink)
}

// udpBaseline ping-pongs 8 bytes between this process and the rank-1
// process's plain echo socket — no gupcxx — and returns the median round
// trip in microseconds: the floor loopback sets on this host.
func udpBaseline(echoAddr string, budget time.Duration) (float64, error) {
	raddr, err := net.ResolveUDPAddr("udp", echoAddr)
	if err != nil {
		return 0, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var msg, reply [8]byte
	var rtts []float64
	deadline := time.Now().Add(budget)
	for i := 0; i < 64 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if _, err := conn.Write(msg[:]); err != nil {
			return 0, err
		}
		conn.SetReadDeadline(t0.Add(time.Second))
		if _, err := conn.Read(reply[:]); err != nil {
			return 0, fmt.Errorf("udp baseline: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(rtts)
	return rtts[len(rtts)/2], nil
}
