package gasnet

import (
	"encoding/binary"
	"testing"
	"time"
)

// TestPollInternalServicesRequests: a peer blocked on a remote get makes
// progress when the target runs only internal-level polls.
func TestPollInternalServicesRequests(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond})
	seg1 := d.Segment(1)
	off, _ := seg1.Alloc(8)
	ApplyAmo(seg1, off, AmoStore, 424242, 0)

	dst := make([]byte, 8)
	done := false
	d.Endpoint(0).GetRemote(1, off, 8, dst, func(error) { done = true })
	deadline := time.Now().Add(2 * time.Second)
	for !done {
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		d.Endpoint(1).PollInternal() // target: internal progress only
		d.Endpoint(0).Poll()         // initiator: user-level
	}
	if binary.NativeEndian.Uint64(dst) != 424242 {
		t.Errorf("get = %d", binary.NativeEndian.Uint64(dst))
	}
}

// TestPollInternalHoldsAcks: the initiator's own internal progress must
// not complete its operations — acks wait for user-level Poll.
func TestPollInternalHoldsAcks(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond})
	seg1 := d.Segment(1)
	off, _ := seg1.Alloc(8)

	done := false
	ep0 := d.Endpoint(0)
	ep0.PutRemote(1, off, []byte{1, 0, 0, 0, 0, 0, 0, 0}, nil, func(error) { done = true })
	// Let the target service the request and the ack arrive.
	deadline := time.Now().Add(time.Second)
	for ep0.InboxEmpty() && time.Now().Before(deadline) {
		d.Endpoint(1).Poll()
	}
	// Internal progress on the initiator: ack must be held.
	for i := 0; i < 10; i++ {
		ep0.PollInternal()
	}
	if done {
		t.Fatal("internal progress delivered an operation completion")
	}
	if ep0.PendingOps() != 1 {
		t.Fatalf("pending = %d", ep0.PendingOps())
	}
	// User-level progress delivers it.
	ep0.Poll()
	if !done {
		t.Fatal("user-level progress did not deliver the held ack")
	}
}

// TestPollInternalHoldsRemoteCompletion: a serviced put's data is applied
// and acked under internal progress, but its remote-completion callback
// waits for user-level progress on the target.
func TestPollInternalHoldsRemoteCompletion(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond})
	seg1 := d.Segment(1)
	off, _ := seg1.Alloc(8)

	remoteRan := false
	acked := false
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	ep0.PutRemote(1, off, []byte{7, 0, 0, 0, 0, 0, 0, 0},
		func(*Endpoint) { remoteRan = true },
		func(error) { acked = true })

	deadline := time.Now().Add(time.Second)
	for !acked {
		if time.Now().After(deadline) {
			t.Fatal("timeout: put not acked under internal progress")
		}
		ep1.PollInternal()
		ep0.Poll()
	}
	// Data applied, op complete — but the remote callback must not have
	// run under internal-only progress at the target.
	if v := ApplyAmo(seg1, off, AmoLoad, 0, 0); v != 7 {
		t.Errorf("data not applied: %d", v)
	}
	if remoteRan {
		t.Fatal("remote completion ran under internal progress")
	}
	ep1.Poll()
	if !remoteRan {
		t.Fatal("remote completion lost")
	}
}

// TestPollInternalHoldsUserMessages: user-level AMs survive internal
// polls in order.
func TestPollInternalHoldsUserMessages(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: PSHM})
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
		got = append(got, m.A0)
	})
	ep1 := d.Endpoint(1)
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase, A0: 1})
	ep1.PollInternal()
	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase, A0: 2})
	if len(got) != 0 {
		t.Fatal("user message delivered by internal poll")
	}
	ep1.Poll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("order after hold: %v", got)
	}
}
