package taskrt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// CommHandle is a starpu_mpi request: a send or a receive of a data
// handle, posted with PostSend or PostRecv. Once the communication
// thread has processed it, the request runs as its own chain.
type CommHandle struct {
	send      bool
	peer, tag int
	buf       *machine.Buffer
	size      int64
	dataNUMA  int         // home of the handle's metadata
	then      func(error) // if non-nil, gets the outcome before waiters wake
	err       error
	done      bool
	doneSig   *sim.Signal
	begun     sim.Time
	chain
}

// chain is a continuation running the communication thread (from
// commStart, h the request it processes) or request h (from reqStart),
// trampolined as mpi's op.wake is: a wakeup that comes while step runs
// (a sleep that ends in place) makes it run once more, not recurse.
type chain struct {
	rt          *Runtime
	h           *CommHandle
	cont        sim.Cont
	pc          uint8
	busy, again bool
}

// The steps of a chain.
const (
	commStart  uint8 = iota // the thread busy-drains the list until Shutdown
	commPop                 // take the oldest request, or wait for one
	commBurn                // process it
	commTouch               // a send touches the handle metadata
	commHand                // hand it to the MPI library's progression
	reqStart                // start the MPI operation
	reqTouch                // a received handle's metadata is touched
	reqDeliver              // the completion callback and handle release
	reqDone
)

func (c *chain) wake() {
	if c.busy {
		c.again = true
		return
	}
	for c.busy, c.again = true, true; c.again; {
		c.again = false
		c.step()
	}
	c.busy = false
}

// step runs the chain from c.pc until it arms a wait or ends. The
// thread pays the per-request software path serially on its core, and
// the MPI operation progresses asynchronously, so a posted receive never
// blocks a queued send (symmetric rendezvous exchanges would deadlock).
func (c *chain) step() {
	rt, h := c.rt, c.h
	for {
		switch c.pc {
		case commStart:
			rt.node.Freq.SetActive(rt.cfg.CommCore, topology.Scalar)
			c.pc = commPop
		case commPop:
			if rt.shutdown {
				rt.node.Freq.SetIdle(rt.cfg.CommCore)
				return
			}
			var ok bool
			if h, ok = rt.commQ.TryPop(); !ok {
				rt.commSig.WaitCont(&c.cont)
				return
			}
			c.h, c.pc = h, commBurn
		case commBurn:
			frac, next := commRecvFrac, commHand
			if h.send {
				frac, next = commSendFrac, commTouch
			}
			if c.exec(frac*rt.node.Spec.RuntimeCyclesPerMsg, next) {
				return
			}
		case commTouch:
			c.touch(commHand)
			return
		case commHand:
			// The request progresses concurrently with the next ones.
			rt.k.At(rt.k.Now(), h.wake)
			c.pc = commPop
		case reqStart:
			h.begun, c.pc = rt.k.Now(), reqTouch
			if h.send {
				rt.cfg.Rank.StartSend(h.peer, h.tag, h.buf, h.size, h.ended)
			} else {
				rt.cfg.Rank.StartRecv(h.peer, h.tag, h.buf, h.size, h.ended)
			}
			return
		case reqTouch:
			if !h.send && h.err == nil {
				c.touch(reqDeliver)
				return
			}
			c.pc = reqDeliver
		case reqDeliver:
			if c.exec(deliverFrac*rt.node.Spec.RuntimeCyclesPerMsg, reqDone) {
				return
			}
		case reqDone:
			label := "recv"
			if h.send {
				label = "send"
			}
			rt.traceEvent(rt.cfg.CommCore, "comm", label, h.begun, rt.k.Now())
			h.done = true
			if h.then != nil {
				h.then(h.err)
			}
			if rt.commInflight--; rt.commInflight == 0 {
				rt.commIdleSig.Broadcast()
			}
			h.doneSig.Broadcast()
			return
		}
	}
}

// exec burns cycles on the communication core, then goes on at next.
// It reports whether the step waits: on the burn or, staying at this
// step, on the node's recovery.
func (c *chain) exec(cycles float64, next uint8) bool {
	if cycles <= 0 {
		c.pc = next
		return false
	}
	if c.rt.node.ExecCyclesCont(&c.cont, c.rt.cfg.CommCore, cycles) {
		c.pc = next
	}
	return true
}

// touch is exec for the accesses to the request's handle metadata; the
// step always waits.
func (c *chain) touch(next uint8) {
	if c.rt.node.MemAccessesCont(&c.cont, c.rt.cfg.CommCore, c.h.dataNUMA, handleAccesses) {
		c.pc = next
	}
}

// ended is the then of the request's MPI operation.
func (h *CommHandle) ended(err error) {
	h.err = err
	h.wake()
}

// PostSend enqueues a starpu_mpi send of a data handle to the peer
// rank. It runs the submission stage on the caller's core (the main
// thread), then the communication thread picks the request up, touches
// the handle metadata (NUMA-sensitive, Fig 8), and performs the MPI
// send.
func (rt *Runtime) PostSend(p *sim.Proc, peer, tag int, buf *machine.Buffer, size int64) *CommHandle {
	return rt.post(p, rt.request(true, peer, tag, buf, size, nil))
}

// PostRecv enqueues a starpu_mpi receive of a data handle from the
// peer rank.
func (rt *Runtime) PostRecv(p *sim.Proc, peer, tag int, buf *machine.Buffer, size int64) *CommHandle {
	return rt.post(p, rt.request(false, peer, tag, buf, size, nil))
}

// Wait blocks p until the request completes and returns its outcome:
// nil, mpi.ErrPeerDead or a lossy schedule's *fault.TransferError.
func (h *CommHandle) Wait(p *sim.Proc) error {
	for !h.done {
		h.doneSig.Wait(p)
	}
	return h.err
}

// request returns a new request.
func (rt *Runtime) request(send bool, peer, tag int, buf *machine.Buffer, size int64, then func(error)) *CommHandle {
	if rt.cfg.Rank == nil {
		panic("taskrt: runtime has no MPI rank")
	}
	h := &CommHandle{send: send, peer: peer, tag: tag, buf: buf, size: size, then: then,
		dataNUMA: rt.node.Spec.NUMAOfCore(rt.cfg.CommCore), doneSig: sim.NewSignal(rt.k)}
	if buf != nil {
		h.dataNUMA = buf.NUMA
	}
	h.chain = chain{rt: rt, h: h, pc: reqStart}
	h.cont = sim.MakeCont(h.wake)
	return h
}

// post appends h to the request list and wakes the communication
// thread. From a main thread's process p it first runs the submission
// stage on the main core; a nil p (event or worker context) skips it,
// as a proxy task's scheduling already paid it.
func (rt *Runtime) post(p *sim.Proc, h *CommHandle) *CommHandle {
	if p != nil {
		rt.node.ExecCycles(p, rt.cfg.MainCore, submitFrac*rt.node.Spec.RuntimeCyclesPerMsg)
	}
	rt.commInflight++
	rt.commQ.Push(h)
	rt.commSig.Signal()
	return h
}

// must panics with a failed request's error, as a blocking MPI call
// does.
func must(err error) {
	if err != nil {
		panic(err)
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
		// Nothing waits for the send: a failure panics on completion.
		rt.post(p, rt.request(true, peer, starpuTag, buf, pp.Size, must))
		must(rt.PostRecv(p, peer, starpuTag+1, buf, pp.Size).Wait(p))
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
		must(rt.PostRecv(p, peer, starpuTag, buf, pp.Size).Wait(p))
		must(rt.PostSend(p, peer, starpuTag+1, buf, pp.Size).Wait(p))
	}
}

const starpuTag = 9000

// String implements fmt.Stringer for diagnostics.
func (rt *Runtime) String() string {
	return fmt.Sprintf("taskrt{node=%d workers=%d backoff=%d..%d queueNUMA=%d}",
		rt.node.ID, len(rt.cfg.WorkerCores), rt.cfg.Backoff.Min, rt.cfg.Backoff.Max, rt.queueNUMA)
}
