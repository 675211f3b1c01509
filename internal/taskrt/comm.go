package taskrt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PostSend enqueues a starpu_mpi send of a data handle to the peer
// rank. It runs the submission stage on the caller's core (the main
// thread), then the communication thread picks the request up, touches
// the handle metadata (NUMA-sensitive, Fig 8), and performs the MPI
// send. onDone, if non-nil, runs when the send completes locally.
func (rt *Runtime) PostSend(p *sim.Proc, peer, tag int, buf *machine.Buffer, size int64, onDone func()) *sim.Signal {
	return rt.post(p, &commReq{send: true, peer: peer, tag: tag, buf: buf, size: size, onDone: onDone})
}

// PostRecv enqueues a starpu_mpi receive of a data handle from the
// peer rank.
func (rt *Runtime) PostRecv(p *sim.Proc, peer, tag int, buf *machine.Buffer, size int64, onDone func()) *sim.Signal {
	return rt.post(p, &commReq{send: false, peer: peer, tag: tag, buf: buf, size: size, onDone: onDone})
}

// CommHandle tracks a fault-tolerant communication request posted with
// PostSendFT/PostRecvFT.
type CommHandle struct {
	req *commReq
}

// Done reports whether the request has completed (successfully or not).
func (h *CommHandle) Done() bool { return h.req.complete }

// Err returns the request's outcome; only meaningful once Done.
func (h *CommHandle) Err() error { return h.req.err }

// Wait blocks p until the request completes and returns its outcome:
// nil on success, mpi.ErrPeerDead when the peer died mid-transfer.
func (h *CommHandle) Wait(p *sim.Proc) error {
	for !h.req.complete {
		h.req.doneSig.Wait(p)
	}
	return h.req.err
}

// PostSendFT is PostSend routed through the fault-tolerant MPI send:
// instead of hanging on a dead peer, the request completes with
// mpi.ErrPeerDead (surfaced by the returned handle's Wait).
func (rt *Runtime) PostSendFT(p *sim.Proc, peer, tag int, buf *machine.Buffer, size int64) *CommHandle {
	req := &commReq{send: true, peer: peer, tag: tag, buf: buf, size: size, ft: true}
	rt.post(p, req)
	return &CommHandle{req: req}
}

// PostRecvFT is PostRecv routed through the fault-tolerant MPI receive.
func (rt *Runtime) PostRecvFT(p *sim.Proc, peer, tag int, buf *machine.Buffer, size int64) *CommHandle {
	req := &commReq{send: false, peer: peer, tag: tag, buf: buf, size: size, ft: true}
	rt.post(p, req)
	return &CommHandle{req: req}
}

func (rt *Runtime) post(p *sim.Proc, req *commReq) *sim.Signal {
	if rt.cfg.Rank == nil {
		panic("taskrt: runtime has no MPI rank")
	}
	req.doneSig = sim.NewSignal(rt.k)
	// Submission: request allocation, handle lookup, list insertion.
	rt.node.ExecCycles(p, rt.cfg.MainCore, submitFrac*rt.node.Spec.RuntimeCyclesPerMsg)
	rt.commStarted()
	rt.commQ.Push(req)
	return req.doneSig
}

// commLoop is the communication thread: it busy-drains the request
// list, pays the runtime's per-request software path, and drives the
// MPI library. The MPI operation itself runs asynchronously (the
// library's internal progression), so posting a receive never blocks
// the processing of a queued send — without this, two ranks exchanging
// rendezvous messages symmetrically would deadlock.
func (rt *Runtime) commLoop(p *sim.Proc) {
	node := rt.node
	core := rt.cfg.CommCore
	rank := rt.cfg.Rank
	node.Freq.SetActive(core, topology.Scalar)
	defer node.Freq.SetIdle(core)
	for {
		req := rt.commQ.Pop(p)
		if rt.shutdown || req.sentinel {
			return
		}

		commNUMA := node.Spec.NUMAOfCore(core)
		dataNUMA := commNUMA
		if req.buf != nil {
			dataNUMA = req.buf.NUMA
		}
		// Request processing runs serially on the communication core.
		if req.send {
			node.ExecCycles(p, core, commSendFrac*node.Spec.RuntimeCyclesPerMsg)
			node.MemAccesses(p, core, dataNUMA, handleAccesses)
		} else {
			node.ExecCycles(p, core, commRecvFrac*node.Spec.RuntimeCyclesPerMsg)
		}
		// The transfer and its completion callback progress concurrently
		// with the next requests.
		rt.k.Spawn(fmt.Sprintf("mpireq.n%d", node.ID), func(hp *sim.Proc) {
			start := hp.Now()
			label := "recv"
			if req.send {
				label = "send"
			}
			switch {
			case req.ft && req.send:
				req.err = rank.SendFT(hp, req.peer, req.tag, req.buf, req.size)
			case req.ft:
				req.err = rank.RecvFT(hp, req.peer, req.tag, req.buf, req.size)
				if req.err == nil {
					node.MemAccesses(hp, core, dataNUMA, handleAccesses)
				}
			case req.send:
				rank.Send(hp, req.peer, req.tag, req.buf, req.size)
			default:
				rank.Recv(hp, req.peer, req.tag, req.buf, req.size)
				node.MemAccesses(hp, core, dataNUMA, handleAccesses)
			}
			node.ExecCycles(hp, core, deliverFrac*node.Spec.RuntimeCyclesPerMsg)
			rt.traceEvent(core, "comm", label, start, hp.Now())
			req.complete = true
			if req.onDone != nil {
				req.onDone()
			}
			rt.commFinished()
			req.doneSig.Broadcast()
		})
	}
}

// PingPong runs the §5.2/Fig 8 benchmark: a ping-pong written against
// the runtime API instead of plain MPI, so every message crosses the
// full software path (submission → request list → communication thread
// → MPI). Buffers are placed by the caller; Size bytes per message.
type PingPong struct {
	Size   int64
	Iters  int
	Warmup int
	// Buf is the (recycled) data handle at this end; nil allocates on
	// the NIC NUMA node.
	Buf *machine.Buffer
}

// Initiate runs the initiator side on rt against peer from the main
// thread's process, returning half-round-trip latencies.
func (pp *PingPong) Initiate(p *sim.Proc, rt *Runtime, peer int) []sim.Duration {
	buf := pp.Buf
	if buf == nil {
		buf = rt.node.Alloc(max(pp.Size, 1), rt.node.Spec.NIC.NUMA)
	}
	lats := make([]sim.Duration, 0, pp.Iters)
	for i := 0; i < pp.Warmup+pp.Iters; i++ {
		start := p.Now()
		rt.PostSend(p, peer, starpuTag, buf, pp.Size, nil)
		var rdone bool
		rreq := rt.PostRecv(p, peer, starpuTag+1, buf, pp.Size, func() { rdone = true })
		for !rdone {
			rreq.Wait(p)
		}
		if i >= pp.Warmup {
			lats = append(lats, p.Now().Sub(start)/2)
		}
	}
	return lats
}

// Respond runs the responder side on rt against peer.
func (pp *PingPong) Respond(p *sim.Proc, rt *Runtime, peer int) {
	buf := pp.Buf
	if buf == nil {
		buf = rt.node.Alloc(max(pp.Size, 1), rt.node.Spec.NIC.NUMA)
	}
	for i := 0; i < pp.Warmup+pp.Iters; i++ {
		var rdone bool
		rreq := rt.PostRecv(p, peer, starpuTag, buf, pp.Size, func() { rdone = true })
		for !rdone {
			rreq.Wait(p)
		}
		var sdone bool
		sreq := rt.PostSend(p, peer, starpuTag+1, buf, pp.Size, func() { sdone = true })
		for !sdone {
			sreq.Wait(p)
		}
	}
}

const starpuTag = 9000

// String implements fmt.Stringer for diagnostics.
func (rt *Runtime) String() string {
	return fmt.Sprintf("taskrt{node=%d workers=%d backoff=%d..%d queueNUMA=%d}",
		rt.node.ID, len(rt.cfg.WorkerCores), rt.cfg.Backoff.Min, rt.cfg.Backoff.Max, rt.cfg.QueueNUMA)
}
