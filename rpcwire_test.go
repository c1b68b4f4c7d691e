package gupcxx_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"gupcxx"
	"gupcxx/internal/serial"
)

func TestRPCWireRoundTrip(t *testing.T) {
	// On the UDP conduit the request and reply genuinely cross the
	// kernel; on PSHM/SIM the same code path uses in-memory delivery.
	for _, conduit := range []gupcxx.Conduit{gupcxx.PSHM, gupcxx.SIM, gupcxx.UDP} {
		w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 3, Conduit: conduit, SegmentBytes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		echo := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
			e := serial.NewEncoder(nil)
			e.PutU32(uint32(r.Me()))
			e.PutBytes(args)
			return append([]byte(nil), e.Bytes()...)
		})
		sum := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
			d := serial.NewDecoder(args)
			a, b := d.U64(), d.U64()
			e := serial.NewEncoder(nil)
			e.PutU64(a + b)
			return append([]byte(nil), e.Bytes()...)
		})
		err = w.Run(func(r *gupcxx.Rank) {
			target := (r.Me() + 1) % r.N()
			reply := gupcxx.RPCWire(r, target, echo, []byte("ping")).Wait()
			d := serial.NewDecoder(reply)
			if who := d.U32(); int(who) != target {
				t.Errorf("%v: echo from %d, want %d", conduit, who, target)
			}
			if string(d.Bytes()) != "ping" {
				t.Errorf("%v: payload corrupted", conduit)
			}

			e := serial.NewEncoder(nil)
			e.PutU64(40)
			e.PutU64(2)
			reply = gupcxx.RPCWire(r, target, sum, e.Bytes()).Wait()
			if got := serial.NewDecoder(reply).U64(); got != 42 {
				t.Errorf("%v: sum = %d", conduit, got)
			}
			r.Barrier()
		})
		w.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestRPCWireSelfAndConcurrent(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	bump := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
		return append(args, byte(r.Me()))
	})
	err = w.Run(func(r *gupcxx.Rank) {
		// Many outstanding calls at once (exercises cookie recycling).
		var futs []gupcxx.FutureV[[]byte]
		for i := 0; i < 50; i++ {
			futs = append(futs, gupcxx.RPCWire(r, i%r.N(), bump, []byte{byte(i)}))
		}
		for i, f := range futs {
			got := f.Wait()
			if len(got) != 2 || got[0] != byte(i) || got[1] != byte(i%r.N()) {
				t.Errorf("call %d: reply %v", i, got)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUDPWaitParksAtOnce: a rank waiting on the socket parks on its first
// idle step instead of spinning yields. With one P the yields would keep
// the socket reader goroutine from running, so each blocking call would
// spin out the in-memory yield budget (about 260 progress calls per echo)
// before the reply could be read. Counts progress calls; reads no clock.
// The wire is clean: under injected loss the count would follow the
// retransmission timer instead.
func TestUDPWaitParksAtOnce(t *testing.T) {
	t.Setenv("GUPCXX_UDP_FAULT", "")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	echo := w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte { return args })
	const calls = 500
	err = w.Run(func(r *gupcxx.Rank) {
		r.Barrier()
		if r.Me() == 0 {
			for i := 0; i < calls; i++ {
				if got := gupcxx.RPCWire(r, 1, echo, []byte{byte(i)}).Wait(); len(got) != 1 || got[0] != byte(i) {
					t.Errorf("echo %d: reply %v", i, got)
				}
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(w.Stats().ProgressCalls) / calls
	t.Logf("%.1f progress calls per blocking echo", perOp)
	if perOp > 16 {
		t.Errorf("%.1f progress calls per blocking echo, want <= 16: the waiter spins instead of parking", perOp)
	}
}

func TestRPCWireUnregisteredFails(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 1, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		_, werr := gupcxx.RPCWire(r, 0, gupcxx.RPCHandlerID(99), nil).WaitErr()
		if werr == nil || !strings.Contains(werr.Error(), "unregistered") {
			t.Errorf("unregistered handler id should fail the future, got %v", werr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRPCWireArgsAppendIsolated: a wire-RPC handler that appends to its
// args must not write into the next message of the same received frame.
// Rank 0 issues its calls in pairs, which leave in one datagram; rank 1's
// handler appends 64 bytes to args and returns args as it came. Every
// reply must echo its own call's argument.
func TestRPCWireArgsAppendIsolated(t *testing.T) {
	ws := newProcessPair(t)
	defer ws[0].Close()
	defer ws[1].Close()
	var pad [64]byte
	for i := range pad {
		pad[i] = 0xAA
	}
	var echo gupcxx.RPCHandlerID
	for _, w := range ws {
		echo = w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte {
			_ = append(args, pad[:]...)
			return args
		})
	}
	served := make(chan error, 1)
	go func() {
		served <- ws[1].Run(func(r *gupcxx.Rank) { r.Barrier() })
	}()
	const pairs = 200
	corrupt := 0
	err := ws[0].Run(func(r *gupcxx.Rank) {
		defer r.Barrier()
		for i := 0; i < pairs; i++ {
			var args [2][8]byte
			var futs [2]gupcxx.FutureV[[]byte]
			for j := range futs {
				binary.LittleEndian.PutUint64(args[j][:], uint64(2*i+j))
				futs[j] = gupcxx.RPCWire(r, 1, echo, args[j][:])
			}
			for j, f := range futs {
				if got := f.Wait(); !bytes.Equal(got, args[j][:]) {
					corrupt++
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Errorf("%d of %d replies corrupted by the handler's append", corrupt, 2*pairs)
	}
}
