// Package mpi implements the message-passing layer of the simulation:
// point-to-point sends and receives with eager and rendezvous protocols
// over the net layer, tag matching with an unexpected-message queue, a
// registration (pin-down) cache for rendezvous buffers, and the
// NetPIPE-style ping-pong benchmark the paper builds everything on.
//
// Semantics follow the paper's MadMPI setup: one rank per node, one
// communication thread per rank driving all communication, messages up
// to EagerMax bytes sent eagerly through pre-registered internal buffers
// (one staging copy on each side), larger messages through a
// RTS/CTS rendezvous followed by zero-copy RDMA.
package mpi

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/sim"
)

// World is a communicator spanning one rank per cluster node.
type World struct {
	cluster *machine.Cluster
	nw      *net.Network
	ranks   []*Rank
	// inj is the fault injector installed on the network, nil on
	// healthy worlds. Under a lossy schedule the point-to-point
	// protocols switch to their recovery paths: bounded retransmission
	// with exponential backoff + jitter for eager messages, RTS/CTS
	// retransmission for rendezvous handshakes. Healthy worlds never
	// enter those paths, so their event sequence is unchanged.
	inj *fault.Injector
	// det is the heartbeat failure detector, armed by StartHeartbeat on
	// worlds whose fault schedule contains node crashes; nil otherwise.
	// SendFT and RecvFT pass it to the protocol, Send and Recv pass nil.
	det *Detector
	// freeMsgs recycles message structs (with their embedded signals and
	// bound-method callbacks) on healthy worlds. Receives under an
	// injector or a detector never pool: retransmission timers and
	// detector watchers can hold a message past its normal release point.
	freeMsgs []*message
}

// NewWorld creates one rank per node of the cluster. Each rank's
// communication thread is initially bound to the last core of the last
// NUMA node (the paper's default placement: far from the NIC).
func NewWorld(c *machine.Cluster, nw *net.Network) *World {
	w := &World{cluster: c, nw: nw, inj: nw.Faults()}
	for i, n := range c.Nodes {
		w.ranks = append(w.ranks, &Rank{
			world:    w,
			ID:       i,
			Node:     n,
			CommCore: n.Spec.LastCoreOfNUMA(n.Spec.NUMANodes() - 1),
			pending:  make(map[matchKey][]*pendingRecv),
			unexp:    make(map[matchKey][]*message),
		})
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank {
	if i < 0 || i >= len(w.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", i, len(w.ranks)))
	}
	return w.ranks[i]
}

// Network returns the underlying interconnect.
func (w *World) Network() *net.Network { return w.nw }

// Reset rewinds the communicator for reuse after the underlying cluster
// and network have been reset: it re-reads the (cleared) fault injector,
// disarms the failure detector, and restores every rank's default
// comm-thread placement. It panics if any rank still has queued or
// posted messages — a world must be drained before it is recycled.
func (w *World) Reset() {
	w.inj = w.nw.Faults()
	w.det = nil
	for _, r := range w.ranks {
		for key, q := range r.pending {
			if len(q) != 0 {
				panic(fmt.Sprintf("mpi: Reset with %d pending receives on rank %d key %+v", len(q), r.ID, key))
			}
		}
		for key, q := range r.unexp {
			if len(q) != 0 {
				panic(fmt.Sprintf("mpi: Reset with %d unexpected messages on rank %d key %+v", len(q), r.ID, key))
			}
		}
		r.CommCore = r.Node.Spec.LastCoreOfNUMA(r.Node.Spec.NUMANodes() - 1)
	}
}

// matchKey matches messages by source rank and tag.
type matchKey struct{ src, tag int }

// message is an in-flight message as seen by the receiver side.
type message struct {
	src, tag int
	size     int64
	eager    bool

	// Eager: arrived flips when the payload has landed in the
	// receiver's internal buffers.
	arrived    bool
	arrivedSig *sim.Signal

	// Rendezvous: the receiver broadcasts cts once its buffer is ready
	// and the CTS control message has crossed the wire; the sender
	// broadcasts dmaDone when the RDMA write has fully landed. Waiters
	// loop on the arrived, ctsOK and dmaOK flags, not on the signals: a
	// failure detector's death declaration broadcasts the same signals
	// (Detector.Watch), and a waiter it woke with its flag still clear
	// re-checks whether the peer died.
	srcRank *Rank
	rbuf    *machine.Buffer // receiver's landing buffer, set before CTS
	cts     *sim.Signal
	ctsOK   bool
	dmaDone *sim.Signal
	dmaOK   bool

	// Fault recovery: delivered dedups retransmitted RTS (the sender
	// reuses the same message object per attempt), and answered, set
	// once the receiver has sent its CTS, makes a duplicate RTS re-send
	// the CTS (the duplicate reveals that the previous CTS was lost).
	delivered bool
	answered  bool

	// peer is the destination rank, read by the cached wire-arrival
	// callbacks below. They are bound once per message lifetime so the
	// healthy hot paths schedule arrivals without per-send closures.
	peer      *Rank
	deliverFn func()     // eagerWireArrival
	payloadFn func()     // eagerPayload
	landedFn  func(bool) // eagerLanded
	rtsFn     func()     // rtsArrive
	ctsFn     func()     // ctsArrive
}

// eagerWireArrival runs when an eager message's first packet crosses
// the wire: the payload streams in from the next event slot of this
// instant while the envelope is delivered for matching.
func (m *message) eagerWireArrival() {
	if m.size == 0 {
		m.arrived = true
		m.arrivedSig.Broadcast()
		m.peer.deliver(m)
		return
	}
	k := m.srcRank.world.cluster.K
	k.At(k.Now(), m.payloadFn)
	m.peer.deliver(m)
}

// eagerPayload streams the eager payload into the receiver's internal
// buffers.
func (m *message) eagerPayload() {
	m.srcRank.world.nw.StartEager(m.srcRank.Node, m.peer.Node, m.size, m.landedFn)
}

// eagerLanded ends the eager payload's transfer. A payload dropped by a
// node crash never arrives; a receive watching the failure detector
// learns of the dead sender instead.
func (m *message) eagerLanded(landed bool) {
	if landed {
		m.arrived = true
		m.arrivedSig.Broadcast()
	}
}

// rtsArrive delivers a rendezvous RTS.
func (m *message) rtsArrive() { m.peer.deliverRTS(m) }

// ctsArrive completes the receiver's CTS control message.
func (m *message) ctsArrive() { m.ctsOK = true; m.cts.Broadcast() }

// sendCTS answers a rendezvous RTS on behalf of the receiver m.peer.
// Under a lossy schedule the CTS itself can be lost or corrupted; the
// sender's RTS retransmission then re-triggers it (deliverRTS).
func (m *message) sendCTS() {
	node, w := m.peer.Node, m.peer.world
	if inj := w.inj; inj != nil && inj.Lossy() {
		switch inj.Tx() {
		case fault.TxCorrupt:
			node.Counters.MsgsCorrupted++
			return
		case fault.TxLost:
			node.Counters.MsgsLost++
			return
		}
	}
	w.cluster.K.After(node.Jitter(w.nw.WireLatency(), node.Spec.NIC.NoiseFrac), m.ctsFn)
}

// getMsg returns a message with fresh protocol state, recycled from the
// world's free list when possible.
func (w *World) getMsg() *message {
	if n := len(w.freeMsgs); n > 0 {
		m := w.freeMsgs[n-1]
		w.freeMsgs[n-1] = nil
		w.freeMsgs = w.freeMsgs[:n-1]
		m.eager = false
		m.arrived = false
		m.srcRank = nil
		m.rbuf = nil
		m.ctsOK = false
		m.dmaOK = false
		m.delivered = false
		m.answered = false
		m.peer = nil
		return m
	}
	k := w.cluster.K
	m := &message{
		arrivedSig: sim.NewSignal(k),
		cts:        sim.NewSignal(k),
		dmaDone:    sim.NewSignal(k),
	}
	m.deliverFn = m.eagerWireArrival
	m.payloadFn = m.eagerPayload
	m.landedFn = m.eagerLanded
	m.rtsFn = m.rtsArrive
	m.ctsFn = m.ctsArrive
	return m
}

// putMsg recycles a fully completed message. Only receives on worlds
// without a fault injector and without a detector call it: otherwise a
// message can outlive its receive through retransmission timers and
// crash watchers.
func (w *World) putMsg(m *message) {
	w.freeMsgs = append(w.freeMsgs, m)
}

// pendingRecv is a posted receive awaiting its message.
type pendingRecv struct {
	sig *sim.Signal
	msg *message
}

// Rank is one MPI process, pinned to one node.
type Rank struct {
	world *World
	ID    int
	Node  *machine.Node
	// CommCore is the core executing the communication thread; all
	// software overheads of this rank's communication run there.
	CommCore int

	pending map[matchKey][]*pendingRecv
	unexp   map[matchKey][]*message

	// freePRs recycles posted-receive slots. A pendingRecv is only ever
	// referenced by its waiter, the pending queue and, while the waiter
	// blocks, the detector's watch list, so recycling is safe on every
	// world.
	freePRs []*pendingRecv
}

// getPR returns an empty posted-receive slot, recycled when possible.
func (r *Rank) getPR() *pendingRecv {
	if n := len(r.freePRs); n > 0 {
		pr := r.freePRs[n-1]
		r.freePRs[n-1] = nil
		r.freePRs = r.freePRs[:n-1]
		return pr
	}
	return &pendingRecv{sig: sim.NewSignal(r.world.cluster.K)}
}

// putPR recycles a posted-receive slot once its waiter has read msg.
func (r *Rank) putPR(pr *pendingRecv) {
	pr.msg = nil
	r.freePRs = append(r.freePRs, pr)
}

// SetCommCore rebinds the communication thread to a core.
func (r *Rank) SetCommCore(core int) {
	r.Node.Spec.NUMAOfCore(core) // range check
	r.CommCore = core
}

// CommNUMA returns the NUMA node of the communication thread.
func (r *Rank) CommNUMA() int { return r.Node.Spec.NUMAOfCore(r.CommCore) }

// eagerMax returns the eager/rendezvous protocol switch size.
func (r *Rank) eagerMax() int64 { return int64(r.Node.Spec.NIC.EagerMax) }

// deliver routes an arriving message to a posted receive or the
// unexpected queue. Runs in event context.
func (r *Rank) deliver(m *message) {
	key := matchKey{m.src, m.tag}
	if q := r.pending[key]; len(q) > 0 {
		pr := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		r.pending[key] = q[:len(q)-1]
		pr.msg = m
		pr.sig.Broadcast()
		return
	}
	r.unexp[key] = append(r.unexp[key], m)
}

// deliverRTS routes a (possibly retransmitted) rendezvous RTS: the
// first copy goes through normal matching; a duplicate — the sender
// retransmits when no CTS arrived within its timeout — re-sends the
// CTS if the receiver has already answered (the CTS was lost on the
// wire), and is ignored otherwise (the receiver simply has not posted
// its receive yet). Runs in event context.
func (r *Rank) deliverRTS(m *message) {
	if m.delivered {
		if m.answered {
			m.sendCTS()
		}
		return
	}
	m.delivered = true
	r.deliver(m)
}

// match returns the oldest unexpected message for key, or registers a
// pending receive and blocks p until one arrives. It returns nil once
// det declares the source dead with nothing matched: the death
// declaration wakes the posted receive, which is withdrawn so that a
// message arriving later is queued as unexpected.
func (r *Rank) match(p *sim.Proc, key matchKey, det *Detector) *message {
	for {
		if q := r.unexp[key]; len(q) > 0 {
			m := q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			r.unexp[key] = q[:len(q)-1]
			return m
		}
		if det.Dead(key.src) {
			return nil
		}
		pr := r.getPR()
		r.pending[key] = append(r.pending[key], pr)
		unwatch := det.Watch(pr.sig)
		pr.sig.Wait(p)
		unwatch()
		m := pr.msg
		r.putPR(pr)
		if m != nil {
			return m
		}
		q := r.pending[key]
		for i, x := range q {
			if x == pr {
				r.pending[key] = append(q[:i], q[i+1:]...)
				break
			}
		}
	}
}

// await blocks p on sig until *done is set, or returns ErrPeerDead once
// det declares peer dead first. A nil det never declares a death.
func await(p *sim.Proc, det *Detector, peer int, sig *sim.Signal, done *bool) error {
	unwatch := det.Watch(sig)
	defer unwatch()
	for !*done {
		if det.Dead(peer) {
			return ErrPeerDead
		}
		sig.Wait(p)
	}
	return nil
}

// gateComm blocks p while a comm-thread hang fault is active on this
// rank's node.
func (r *Rank) gateComm(p *sim.Proc) {
	if inj := r.world.inj; inj != nil {
		inj.GateComm(p, r.Node.ID)
	}
}

// ErrPeerDead reports that the failure detector declared the peer rank
// dead before the operation could complete.
var ErrPeerDead = errors.New("mpi: peer rank is dead")

// Send transmits size bytes of buf to rank dst with the given tag,
// blocking p (the communication thread) until the send completes
// locally: for eager messages, once the payload has been handed to the
// NIC; for rendezvous messages, once the RDMA transfer has finished. It
// panics with a *fault.TransferError when a lossy schedule exhausts the
// retry budget.
func (r *Rank) Send(p *sim.Proc, dst, tag int, buf *machine.Buffer, size int64) {
	if err := r.send(p, dst, tag, buf, size, nil); err != nil {
		panic(err)
	}
}

// SendFT is the fault-tolerant Send: it returns ErrPeerDead once the
// world's failure detector declares dst dead (before or during the
// operation), and returns retry exhaustion as a *fault.TransferError
// instead of panicking. Without a detector no death is ever declared.
func (r *Rank) SendFT(p *sim.Proc, dst, tag int, buf *machine.Buffer, size int64) error {
	return r.send(p, dst, tag, buf, size, r.world.det)
}

// send is the one send protocol behind Send and SendFT. Every wait on
// the peer watches det; a nil det never declares a death.
func (r *Rank) send(p *sim.Proc, dst, tag int, buf *machine.Buffer, size int64, det *Detector) error {
	if size < 0 || (buf != nil && size > buf.Size) {
		panic(fmt.Sprintf("mpi: send size %d out of buffer bounds", size))
	}
	if det.Dead(dst) {
		return ErrPeerDead
	}
	r.gateComm(p)
	start := p.Now()
	peer := r.world.Rank(dst)
	k := r.world.cluster.K
	nw := r.world.nw
	node := r.Node
	inj := r.world.inj
	lossy := inj != nil && inj.Lossy()

	bufNUMA := node.Spec.NIC.NUMA
	if buf != nil {
		bufNUMA = buf.NUMA
	}
	nw.SendOverhead(p, node, r.CommCore, bufNUMA)

	if size <= r.eagerMax() {
		// Eager: stage the payload into pre-registered NIC-NUMA buffers
		// while the NIC already streams it out (staging and injection
		// pipeline packet by packet); the send completes locally once
		// the staging copy is done. The payload lands in the receiver's
		// internal buffers. Under a lossy schedule each transmission
		// attempt can be dropped or corrupted; losses are detected by
		// retransmission timeout, corruptions by the receiver's checksum
		// after the wasted transfer.
		for attempt := 0; lossy; attempt++ {
			if det.Dead(dst) {
				return ErrPeerDead
			}
			tx := inj.Tx()
			if tx == fault.TxOK {
				break
			}
			if tx == fault.TxCorrupt {
				node.Counters.MsgsCorrupted++
				// The doomed payload still crosses the wire before the
				// receiver discards it.
				if size > 0 {
					nw.Memcpy(p, node, r.CommCore, bufNUMA, node.Spec.NIC.NUMA, size)
					nw.TransferEager(p, node, peer.Node, size)
				}
			} else {
				node.Counters.MsgsLost++
			}
			node.Counters.SendTimeouts++
			if attempt >= inj.Policy().MaxRetries {
				return &fault.TransferError{Op: "eager", Src: node.ID, Dst: peer.Node.ID, Attempts: attempt + 1}
			}
			node.Counters.SendRetries++
			p.Sleep(inj.Backoff(attempt))
		}
		// An eager send to a dead (not yet declared) peer completes
		// locally like real MPI: the payload is dropped on the crashed
		// node's NIC and the error surfaces on a later operation.
		r.injectEager(p, peer, tag, size, bufNUMA)
		r.accountSend(size, p.Now().Sub(start))
		return nil
	}

	// Rendezvous: register the buffer (pin-down cache), send RTS, wait
	// for CTS, then RDMA straight from the user buffer.
	r.register(p, buf)
	m := r.world.getMsg()
	m.src, m.tag, m.size = r.ID, tag, size
	m.srcRank, m.peer = r, peer
	rts := m.rtsFn
	if det != nil {
		// A crashed node's NIC drops incoming control messages.
		rts = func() {
			if inj == nil || !inj.Crashed(peer.Node.ID) {
				m.rtsArrive()
			}
		}
	}
	if lossy {
		// RTS/CTS recovery: retransmit the RTS with exponential backoff
		// until the CTS arrives. The receiver dedups duplicate RTS (see
		// deliverRTS) and re-sends a lost CTS when a duplicate shows the
		// handshake stalled on its side.
		for attempt := 0; ; attempt++ {
			if det.Dead(dst) {
				return ErrPeerDead
			}
			switch inj.Tx() {
			case fault.TxOK:
				k.After(node.Jitter(nw.WireLatency(), node.Spec.NIC.NoiseFrac), rts)
			case fault.TxCorrupt:
				node.Counters.MsgsCorrupted++
			default: // TxLost
				node.Counters.MsgsLost++
			}
			if m.cts.WaitTimeout(p, inj.Backoff(attempt)) && m.ctsOK {
				break
			}
			node.Counters.SendTimeouts++
			if attempt >= inj.Policy().MaxRetries {
				return &fault.TransferError{Op: "rendezvous", Src: node.ID, Dst: peer.Node.ID, Attempts: attempt + 1}
			}
			node.Counters.SendRetries++
		}
	} else {
		k.After(node.Jitter(nw.WireLatency(), node.Spec.NIC.NoiseFrac), rts)
		if err := await(p, det, dst, m.cts, &m.ctsOK); err != nil {
			return err
		}
	}
	// Process the CTS before programming the RDMA engine.
	node.ExecCycles(p, r.CommCore, node.Spec.NIC.RecvCycles/2)
	if !nw.TransferDMA(p, node, buf, peer.Node, m.rbuf, size) && det != nil {
		// A node crash cut the RDMA write; the detector will declare the
		// death shortly, so report it now.
		return ErrPeerDead
	}
	m.dmaOK = true
	m.dmaDone.Broadcast()
	r.accountSend(size, p.Now().Sub(start))
	return nil
}

// injectEager performs one successful eager transmission: schedule the
// wire delivery and pay the staging copy.
func (r *Rank) injectEager(p *sim.Proc, peer *Rank, tag int, size int64, dataNUMA int) {
	node := r.Node
	nw := r.world.nw
	k := r.world.cluster.K
	m := r.world.getMsg()
	m.src, m.tag, m.size = r.ID, tag, size
	m.eager = true
	m.srcRank = r
	m.peer = peer
	lat := node.Jitter(nw.WireLatency(), node.Spec.NIC.NoiseFrac)
	k.After(lat, m.deliverFn)
	nw.Memcpy(p, node, r.CommCore, dataNUMA, node.Spec.NIC.NUMA, size)
}

// Recv receives a message from rank src with the given tag into buf,
// blocking p until the payload is fully in place.
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf *machine.Buffer, size int64) {
	if err := r.recv(p, src, tag, buf, size, nil); err != nil {
		panic(err)
	}
}

// RecvFT is the fault-tolerant Recv: it returns ErrPeerDead when the
// world's failure detector declares src dead, before a matching message
// arrives or while the payload is still in flight. Without a detector
// no death is ever declared.
func (r *Rank) RecvFT(p *sim.Proc, src, tag int, buf *machine.Buffer, size int64) error {
	return r.recv(p, src, tag, buf, size, r.world.det)
}

// recv is the one receive protocol behind Recv and RecvFT: match, then
// drain the eager payload into the user buffer, or answer the
// rendezvous RTS with a CTS and wait for the RDMA write to land. Every
// wait on the sender watches det; a nil det never declares a death.
func (r *Rank) recv(p *sim.Proc, src, tag int, buf *machine.Buffer, size int64, det *Detector) error {
	if size < 0 || (buf != nil && size > buf.Size) {
		panic(fmt.Sprintf("mpi: recv size %d out of buffer bounds", size))
	}
	r.gateComm(p)
	m := r.match(p, matchKey{src, tag}, det)
	if m == nil {
		return ErrPeerDead
	}
	if m.size > size {
		panic(fmt.Sprintf("mpi: message of %d bytes into %d-byte receive", m.size, size))
	}
	nw := r.world.nw
	node := r.Node
	bufNUMA := node.Spec.NIC.NUMA
	if buf != nil {
		bufNUMA = buf.NUMA
	}
	if m.eager {
		if err := await(p, det, src, m.arrivedSig, &m.arrived); err != nil {
			return err
		}
		nw.RecvOverhead(p, node, r.CommCore, bufNUMA)
		// Deliver from the internal NIC-NUMA buffers to the user buffer.
		nw.Memcpy(p, node, r.CommCore, node.Spec.NIC.NUMA, bufNUMA, m.size)
	} else {
		// Rendezvous: process the RTS, prepare (register) the landing
		// buffer, return CTS, wait for the RDMA write to land, complete.
		// The control messages cost real software time at both ends —
		// part of why MPI libraries only switch to rendezvous past a
		// threshold.
		node.ExecCycles(p, r.CommCore, (node.Spec.NIC.RecvCycles+node.Spec.NIC.SendCycles)/2)
		r.register(p, buf)
		m.rbuf = buf
		m.answered = true
		m.sendCTS()
		if err := await(p, det, src, m.dmaDone, &m.dmaOK); err != nil {
			return err
		}
		nw.RecvOverhead(p, node, r.CommCore, bufNUMA)
	}
	node.Counters.BytesReceived += float64(m.size)
	if r.world.inj == nil && det == nil {
		// The receiver is the last toucher: the eager payload's transfer
		// ended with the arrivedSig broadcast that released the wait
		// above, and the sender's last touch is the dmaDone broadcast
		// that released the other.
		r.world.putMsg(m)
	}
	return nil
}

// register pays the memory-registration cost for a rendezvous buffer
// unless the pin-down cache already holds it (recycled ping-pong
// buffers register once, per Tezuka et al. [20]).
func (r *Rank) register(p *sim.Proc, buf *machine.Buffer) {
	if buf == nil || buf.Registered {
		return
	}
	cycles := r.Node.Spec.NIC.RegisterCyclesPerKB * float64(buf.Size) / 1024
	r.Node.ExecCycles(p, r.CommCore, cycles)
	buf.Registered = true
}

// accountSend feeds the §6 sending-bandwidth profiling counters.
func (r *Rank) accountSend(size int64, busy sim.Duration) {
	r.Node.Counters.BytesSent += float64(size)
	r.Node.Counters.SendBusySecs += busy.Seconds()
}
