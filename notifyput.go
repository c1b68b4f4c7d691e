package gupcxx

import (
	"fmt"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Put-with-notify: the wire-encodable form of remote completion. A
// notify-put lands its data in the target's segment and then runs a
// *registered* wire-RPC handler (RegisterRPC) there with caller-supplied
// argument bytes, during the target's user-level progress — the same
// "remote_cx::as_rpc" shape as Rput(..., RemoteRPC(fn)), but with the
// handler named by id instead of carried as a closure, so the whole
// request is data and crosses process boundaries unchanged. In a
// Multiproc world this is the only remote-completion form; in-process
// worlds accept both (on the UDP conduit the closure form's message
// carries a handle to the closure, which only this address space can
// resolve).

// RputNotify initiates a put of val to dst followed by the target-side
// invocation of registered handler id with args (the handler's reply
// bytes are discarded — a notify has no reply path). Completion requests
// in cxs cover the put's acknowledgment, which the target sends after the
// data is applied; the notify itself runs at the target's next user-level
// progress. Remote-completion requests are rejected (the notify IS the
// remote completion).
//
// The operation always travels the substrate's AM protocol, even to
// co-located targets: the notify must run on the target's progress
// goroutine, so there is no synchronous path to complete eagerly. args is
// copied at injection and may be reused immediately. A handler id
// unknown to this world fails the operation eagerly; an id that fails to
// resolve at the target (registration mismatch) is counted there
// (Stats.BadHandlerDrops) — the put still lands and acks.
func RputNotify[T any](r *Rank, val T, dst GlobalPtr[T], id RPCHandlerID, args []byte, cxs ...Cx) Result {
	return rputNotifyBytes(r, gasnet.ValueBytes(&val), dst.rank, dst.off, id, args, cxs)
}

// RputNotifyBulk is the bulk form of RputNotify: it puts the slice src to
// the array headed by dst, then notifies. The source buffer is staged at
// injection and may be reused immediately.
func RputNotifyBulk[T any](r *Rank, src []T, dst GlobalPtr[T], id RPCHandlerID, args []byte, cxs ...Cx) Result {
	return rputNotifyBytes(r, gasnet.SliceBytes(src), dst.rank, dst.off, id, args, cxs)
}

func rputNotifyBytes(r *Rank, data []byte, rank int32, off uint32, id RPCHandlerID, args []byte, cxs []Cx) Result {
	cxs = cxsOrDefault(cxs)
	rejectRemoteCx(cxs, "RputNotify")
	if int(id) >= len(r.w.rpcHandlers) {
		err := fmt.Errorf("gupcxx: notify-put to unregistered handler %d", id)
		return r.eng.Initiate(core.OpDesc{
			Kind: core.OpRMA,
			Peer: int(rank),
			Inject: func(_ func(ctx any), done func(error)) {
				done(err)
			},
		}, cxs)
	}
	return r.eng.Initiate(core.OpDesc{
		Kind:  core.OpRMA,
		Peer:  int(rank),
		Admit: true,
		Inject: func(_ func(ctx any), done func(error)) {
			r.ep.PutNotifyRemote(int(rank), off, data, uint32(id), args, done)
		},
	}, cxs)
}

// failNotWireEncodable books an operation refused at initiation because
// its completion set carries a closure that cannot cross a process
// boundary: every requested completion resolves with ErrNotWireEncodable
// and the pipeline records the failure phase.
func failNotWireEncodable(r *Rank, kind core.OpKind, peer int, cxs []Cx) Result {
	return r.eng.Initiate(core.OpDesc{
		Kind: kind,
		Peer: peer,
		Inject: func(_ func(ctx any), done func(error)) {
			done(ErrNotWireEncodable)
		},
	}, cxs)
}
