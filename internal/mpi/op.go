package mpi

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
)

// op is one send or receive in flight: the one point-to-point protocol,
// run as a state machine. Each wait the protocol makes — a comm-thread
// hang, the software overheads and cycle burns, the staging copies,
// matching, the waits on the peer with their failure-detector watch,
// the lossy retry sleeps and RTS timeouts, and the payload transfers —
// arms the op's continuation, so the next step runs in the event slot
// where a process blocked in that call would resume (see sim.Cont).
// StartSend and StartRecv run one from event context with no process
// (start): the ping-pongs, Isend/Irecv and the task runtime's
// communication requests. Send and Recv park their process on an op
// (run): the collectives and overlap. The rank recycles its ops.
type op struct {
	r    *Rank
	send bool
	// peer is the destination of a send and the source of a receive;
	// det is the detector the op watches, nil for one that never
	// declares a death.
	peer int
	tag  int
	buf  *machine.Buffer
	size int64
	det  *Detector

	// The owner: a then callback, or a process parked in run until the
	// op ends with err.
	then   func(error)
	proc   *sim.Proc
	err    error
	ended  bool
	parked bool

	pc      opPC
	begun   sim.Time // a send's start, for the send-busy counter
	bufNUMA int
	peerR   *Rank // a send's destination rank
	m       *message
	pr      *pendingRecv
	attempt int
	// An await: the signal waited on, the flag it must find set, and
	// the step that follows.
	wsig  *sim.Signal
	wflag *bool
	wnext opPC
	tw    sim.TimedWait
	// landed is the outcome of the last network task (see netDone).
	landed bool

	// busy and again trampoline step (see wake).
	busy, again bool
	cont        sim.Cont   // runs wake
	netFn       func(bool) // netDone, the then of the op's network tasks
}

// opPC is the step an op takes next.
type opPC uint8

const (
	sendDead opPC = iota // a send: fail at once on a dead peer
	gateComm             // wait out a comm-thread hang
	sendOverhead
	sendProtocol // pick eager or rendezvous
	eagerTry     // a lossy eager attempt
	eagerWire    // a corrupted attempt's payload crosses the wire
	eagerRetry
	eagerInject // the successful transmission and its staging copy
	sendDone
	rtsSend   // make the rendezvous message and send its RTS
	rtsTry    // a lossy RTS attempt
	rtsWoke   // its timed wait for the CTS ended
	ctsBurn   // process the CTS
	dmaStart  // the RDMA write
	dmaLanded // it ended
	register  // pay the buffer's registration, unless it is cached
	registerBurn
	registered
	recvMatch
	recvWoke // a posted receive woke
	recvMatched
	recvRndv // process the RTS
	recvCTS  // answer it
	recvOverhead
	recvCopy
	recvDone
	awaitStart // watch wsig for a death declaration
	awaitLoop  // wait until *wflag
)

// newOp returns a recycled op of rank r at its first step.
func (r *Rank) newOp(send bool, peer, tag int, buf *machine.Buffer, size int64, det *Detector) *op {
	if size < 0 || (buf != nil && size > buf.Size) {
		what := "recv"
		if send {
			what = "send"
		}
		panic(fmt.Sprintf("mpi: %s size %d out of buffer bounds", what, size))
	}
	var o *op
	if n := len(r.freeOps); n > 0 {
		o = r.freeOps[n-1]
		r.freeOps[n-1] = nil
		r.freeOps = r.freeOps[:n-1]
	} else {
		o = &op{r: r}
		o.cont = sim.MakeCont(o.wake)
		o.netFn = o.netDone
	}
	o.send, o.peer, o.tag, o.buf, o.size, o.det = send, peer, tag, buf, size, det
	o.bufNUMA = r.Node.Spec.NIC.NUMA
	if buf != nil {
		o.bufNUMA = buf.NUMA
	}
	o.pc = gateComm
	if send {
		o.pc = sendDead
	}
	return o
}

// putOp recycles an ended op.
func (r *Rank) putOp(o *op) {
	o.buf, o.det, o.then, o.proc, o.err = nil, nil, nil, nil, nil
	o.peerR, o.m, o.pr, o.wsig, o.wflag = nil, nil, nil, nil, nil
	o.ended = false
	r.freeOps = append(r.freeOps, o)
}

// run runs the op for p: p parks until the op ends, unless it ends
// within the call, and run returns its outcome. The op's end resumes p
// in the event slot where p would have woken from its last wait.
func (o *op) run(p *sim.Proc) error {
	o.proc = p
	o.wake()
	if !o.ended {
		o.parked = true
		p.Park()
	}
	r, err := o.r, o.err
	r.putOp(o)
	return err
}

// start runs the op with no process; then gets its outcome.
func (o *op) start(then func(error)) {
	o.then = then
	o.wake()
}

// wake is the op's continuation. It trampolines step: a wakeup that
// comes while step runs — a sleep or a network task that ends in place
// — makes the running step loop once more instead of recursing, so the
// protocol's in-place steps take constant stack however long the
// exchange.
func (o *op) wake() {
	if o.busy {
		o.again = true
		return
	}
	o.busy = true
	for {
		o.again = false
		if o.step() {
			return // ended: the owner has the op now
		}
		if !o.again {
			break
		}
	}
	o.busy = false
}

// netDone ends the wait on a network task.
func (o *op) netDone(landed bool) {
	o.landed = landed
	o.wake()
}

// end finishes the op with err and hands it to its owner: it resumes a
// parked process, or recycles the op and calls then. It reports true,
// for step to return.
func (o *op) end(err error) bool {
	o.busy = false
	o.err, o.ended = err, true
	if p := o.proc; p != nil {
		if o.parked {
			o.parked = false
			p.Resume()
		}
		return true
	}
	r, then := o.r, o.then
	r.putOp(o)
	then(err)
	return true
}

// step runs the protocol from o.pc until it waits, and reports whether
// the op ended. A step that arms a wait returns false at once: the
// wakeup runs wake, which loops back here.
func (o *op) step() bool {
	r := o.r
	w, node := r.world, r.Node
	k, nw, inj := w.cluster.K, w.nw, w.inj
	for {
		switch o.pc {
		case sendDead:
			if o.det.Dead(o.peer) {
				return o.end(ErrPeerDead)
			}
			o.pc = gateComm

		case gateComm:
			if !inj.WaitComm(&o.cont, node.ID) {
				return false
			}
			o.pc = recvMatch
			if o.send {
				o.begun = k.Now()
				o.peerR = w.Rank(o.peer)
				o.pc = sendOverhead
			}

		case sendOverhead:
			o.pc = sendProtocol
			nw.StartSendOverhead(node, r.CommCore, o.bufNUMA, o.netFn)
			return false

		case sendProtocol:
			// Eager: stage the payload into pre-registered NIC-NUMA
			// buffers while the NIC already streams it out (staging and
			// injection pipeline packet by packet); the send completes
			// locally once the staging copy is done. The payload lands in
			// the receiver's internal buffers. Under a lossy schedule each
			// transmission attempt can be dropped or corrupted; losses
			// are detected by retransmission timeout, corruptions by the
			// receiver's checksum after the wasted transfer.
			//
			// Rendezvous: register the buffer (pin-down cache), send RTS,
			// wait for CTS, then RDMA straight from the user buffer.
			o.attempt = 0
			switch {
			case o.size > r.eagerMax():
				o.pc, o.wnext = register, rtsSend
			case inj != nil && inj.Lossy():
				o.pc = eagerTry
			default:
				o.pc = eagerInject
			}

		case eagerTry:
			if o.det.Dead(o.peer) {
				return o.end(ErrPeerDead)
			}
			o.pc = eagerRetry
			switch inj.Tx() {
			case fault.TxOK:
				o.pc = eagerInject
			case fault.TxCorrupt:
				node.Counters.MsgsCorrupted++
				// The doomed payload still crosses the wire before the
				// receiver discards it.
				if o.size > 0 {
					o.pc = eagerWire
					nw.StartMemcpy(node, r.CommCore, o.bufNUMA, node.Spec.NIC.NUMA, o.size, o.netFn)
					return false
				}
			default:
				node.Counters.MsgsLost++
			}

		case eagerWire:
			o.pc = eagerRetry
			nw.StartEager(node, o.peerR.Node, o.size, o.netFn)
			return false

		case eagerRetry:
			node.Counters.SendTimeouts++
			if o.attempt >= inj.Policy().MaxRetries {
				return o.end(&fault.TransferError{Op: "eager", Src: node.ID, Dst: o.peerR.Node.ID, Attempts: o.attempt + 1})
			}
			node.Counters.SendRetries++
			o.pc = eagerTry
			d := inj.Backoff(o.attempt)
			o.attempt++
			k.SleepCont(&o.cont, d)
			return false

		case eagerInject:
			// An eager send to a dead (not yet declared) peer completes
			// locally like real MPI: the payload is dropped on the crashed
			// node's NIC and the error surfaces on a later operation.
			m := w.getMsg()
			m.src, m.tag, m.size = r.ID, o.tag, o.size
			m.eager = true
			m.srcRank, m.peer = r, o.peerR
			k.After(node.Jitter(nw.WireLatency(), node.Spec.NIC.NoiseFrac), m.deliverFn)
			o.pc = sendDone
			nw.StartMemcpy(node, r.CommCore, o.bufNUMA, node.Spec.NIC.NUMA, o.size, o.netFn)
			return false

		case sendDone:
			r.accountSend(o.size, k.Now().Sub(o.begun))
			return o.end(nil)

		case rtsSend:
			m := w.getMsg()
			m.src, m.tag, m.size = r.ID, o.tag, o.size
			m.srcRank, m.peer = r, o.peerR
			o.m = m
			if inj != nil && inj.Lossy() {
				// RTS/CTS recovery: retransmit the RTS with exponential
				// backoff until the CTS arrives. The receiver dedups
				// duplicate RTS (see deliverRTS) and re-sends a lost CTS
				// when a duplicate shows the handshake stalled on its side.
				o.pc = rtsTry
				continue
			}
			k.After(node.Jitter(nw.WireLatency(), node.Spec.NIC.NoiseFrac), o.rts())
			o.await(m.cts, &m.ctsOK, ctsBurn)

		case rtsTry:
			if o.det.Dead(o.peer) {
				return o.end(ErrPeerDead)
			}
			switch inj.Tx() {
			case fault.TxOK:
				k.After(node.Jitter(nw.WireLatency(), node.Spec.NIC.NoiseFrac), o.rts())
			case fault.TxCorrupt:
				node.Counters.MsgsCorrupted++
			default:
				node.Counters.MsgsLost++
			}
			o.pc = rtsWoke
			o.m.cts.WaitTimeoutCont(&o.cont, inj.Backoff(o.attempt), &o.tw)
			return false

		case rtsWoke:
			if o.tw.Fired() && o.m.ctsOK {
				o.pc = ctsBurn
				continue
			}
			node.Counters.SendTimeouts++
			if o.attempt >= inj.Policy().MaxRetries {
				return o.end(&fault.TransferError{Op: "rendezvous", Src: node.ID, Dst: o.peerR.Node.ID, Attempts: o.attempt + 1})
			}
			node.Counters.SendRetries++
			o.attempt++
			o.pc = rtsTry

		case ctsBurn:
			// Process the CTS before programming the RDMA engine.
			if o.burn(node.Spec.NIC.RecvCycles/2, dmaStart) {
				return false
			}

		case dmaStart:
			o.pc = dmaLanded
			nw.StartDMA(node, o.buf, o.peerR.Node, o.m.rbuf, o.size, o.netFn)
			return false

		case dmaLanded:
			if !o.landed && o.det != nil {
				// A node crash cut the RDMA write; the detector will
				// declare the death shortly, so report it now.
				return o.end(ErrPeerDead)
			}
			o.m.dmaOK = true
			o.m.dmaDone.Broadcast()
			o.pc = sendDone

		case register:
			// The registration cost of a rendezvous buffer, unless the
			// pin-down cache already holds it (recycled ping-pong buffers
			// register once, per Tezuka et al. [20]); wnext follows.
			o.pc = registerBurn
			if o.buf == nil || o.buf.Registered {
				o.pc = o.wnext
			}

		case registerBurn:
			if o.burn(node.Spec.NIC.RegisterCyclesPerKB*float64(o.buf.Size)/1024, registered) {
				return false
			}

		case registered:
			o.buf.Registered = true
			o.pc = o.wnext

		case recvMatch:
			// Match the oldest unexpected message, or post a receive and
			// wait for one. Once det declares the source dead with
			// nothing matched, the death declaration wakes the posted
			// receive, which is withdrawn so that a message arriving
			// later is queued as unexpected.
			key := matchKey{o.peer, o.tag}
			if q := r.unexp[key]; len(q) > 0 {
				o.m = q[0]
				copy(q, q[1:])
				q[len(q)-1] = nil
				r.unexp[key] = q[:len(q)-1]
				o.pc = recvMatched
				continue
			}
			if o.det.Dead(o.peer) {
				return o.end(ErrPeerDead)
			}
			pr := r.getPR()
			r.pending[key] = append(r.pending[key], pr)
			o.det.Watch(pr.sig)
			o.pr = pr
			o.pc = recvWoke
			pr.sig.WaitCont(&o.cont)
			return false

		case recvWoke:
			pr := o.pr
			o.det.Unwatch(pr.sig)
			m := pr.msg
			r.putPR(pr)
			o.pr = nil
			if m != nil {
				o.m = m
				o.pc = recvMatched
				continue
			}
			key := matchKey{o.peer, o.tag}
			q := r.pending[key]
			for i, x := range q {
				if x == pr {
					r.pending[key] = append(q[:i], q[i+1:]...)
					break
				}
			}
			o.pc = recvMatch

		case recvMatched:
			if o.m.size > o.size {
				panic(fmt.Sprintf("mpi: message of %d bytes into %d-byte receive", o.m.size, o.size))
			}
			if o.m.eager {
				o.await(o.m.arrivedSig, &o.m.arrived, recvOverhead)
				continue
			}
			// Rendezvous: process the RTS, prepare (register) the landing
			// buffer, return CTS, wait for the RDMA write to land,
			// complete. The control messages cost real software time at
			// both ends — part of why MPI libraries only switch to
			// rendezvous past a threshold.
			o.pc = recvRndv

		case recvRndv:
			o.wnext = recvCTS
			if o.burn((node.Spec.NIC.RecvCycles+node.Spec.NIC.SendCycles)/2, register) {
				return false
			}

		case recvCTS:
			o.m.rbuf = o.buf
			o.m.answered = true
			o.m.sendCTS()
			o.await(o.m.dmaDone, &o.m.dmaOK, recvOverhead)

		case recvOverhead:
			o.pc = recvDone
			if o.m.eager {
				o.pc = recvCopy
			}
			nw.StartRecvOverhead(node, r.CommCore, o.bufNUMA, o.netFn)
			return false

		case recvCopy:
			// Deliver from the internal NIC-NUMA buffers to the user
			// buffer.
			o.pc = recvDone
			nw.StartMemcpy(node, r.CommCore, node.Spec.NIC.NUMA, o.bufNUMA, o.m.size, o.netFn)
			return false

		case recvDone:
			node.Counters.BytesReceived += float64(o.m.size)
			if inj == nil && o.det == nil {
				// The receiver is the last toucher: the eager payload's
				// transfer ended with the arrivedSig broadcast that
				// released its wait, and the sender's last touch is the
				// dmaDone broadcast that released the other.
				w.putMsg(o.m)
			}
			return o.end(nil)

		case awaitStart:
			o.det.Watch(o.wsig)
			o.pc = awaitLoop

		case awaitLoop:
			if *o.wflag {
				o.det.Unwatch(o.wsig)
				o.pc = o.wnext
				continue
			}
			if o.det.Dead(o.peer) {
				o.det.Unwatch(o.wsig)
				return o.end(ErrPeerDead)
			}
			o.wsig.WaitCont(&o.cont)
			return false
		}
	}
}

// await makes the op wait on sig until *done is set, then go on at
// next, or end with ErrPeerDead once det declares the peer dead first.
// Waiters loop on the flag, not on the signal: a death declaration
// broadcasts the same signal (Detector.Watch).
func (o *op) await(sig *sim.Signal, done *bool, next opPC) {
	o.wsig, o.wflag, o.wnext = sig, done, next
	o.pc = awaitStart
}

// burn burns cycles on the rank's communication core, as
// machine.Node.ExecCycles does, then goes on at next. It reports
// whether the op waits: on the node's recovery, staying at this step,
// or on the burn.
func (o *op) burn(cycles float64, next opPC) bool {
	if cycles <= 0 {
		o.pc = next
		return false
	}
	if o.r.Node.ExecCyclesCont(&o.cont, o.r.CommCore, cycles) {
		o.pc = next
	}
	return true
}

// rts returns the wire arrival of the op's RTS: one a crashed receiver
// drops when the op watches a detector.
func (o *op) rts() func() {
	if o.det != nil {
		return o.m.rtsFTFn
	}
	return o.m.rtsFn
}
