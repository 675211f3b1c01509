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
	// det is the failure detector armed by StartHeartbeat (the crash
	// drivers arm it, on crash-free worlds too), nil otherwise. SendFT
	// and RecvFT pass it to the protocol, Send and Recv pass nil.
	det *Detector
	// freeMsgs recycles message structs (with their embedded signals and
	// bound-method callbacks) on healthy worlds. Receives under an
	// injector or a detector never pool: retransmission timers and
	// detector watchers can hold a message past its normal release point.
	freeMsgs []*message
	// pingPong is the state of the world's last PingPong.Start, reused
	// by the next one.
	pingPong *pingPong
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
	rtsFTFn   func()     // rtsGuarded
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

// rtsGuarded delivers a rendezvous RTS of a send that watches a failure
// detector, unless the receiver's node has crashed: a crashed node's
// NIC drops incoming control messages.
func (m *message) rtsGuarded() {
	if inj := m.peer.world.inj; inj == nil || !inj.Crashed(m.peer.Node.ID) {
		m.rtsArrive()
	}
}

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
	m.rtsFTFn = m.rtsGuarded
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
	// freeOps recycles the rank's operation state machines (see op).
	freeOps []*op
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
	if err := r.newOp(true, dst, tag, buf, size, nil).run(p); err != nil {
		panic(err)
	}
}

// SendFT is the fault-tolerant Send: it returns ErrPeerDead once the
// world's failure detector declares dst dead (before or during the
// operation), and returns retry exhaustion as a *fault.TransferError
// instead of panicking. Without a detector no death is ever declared.
func (r *Rank) SendFT(p *sim.Proc, dst, tag int, buf *machine.Buffer, size int64) error {
	return r.newOp(true, dst, tag, buf, size, r.world.det).run(p)
}

// StartSend runs SendFT's protocol without a process: it starts the
// send from event context (or from a process, which it does not block)
// and calls then with SendFT's outcome once the send has completed
// locally — in event context, in the event slot where a process
// blocked in SendFT would resume, or at once when it completes within
// the call. then may start the rank's next operation.
func (r *Rank) StartSend(dst, tag int, buf *machine.Buffer, size int64, then func(error)) {
	r.newOp(true, dst, tag, buf, size, r.world.det).start(then)
}

// Recv receives a message from rank src with the given tag into buf,
// blocking p until the payload is fully in place.
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf *machine.Buffer, size int64) {
	if err := r.newOp(false, src, tag, buf, size, nil).run(p); err != nil {
		panic(err)
	}
}

// RecvFT is the fault-tolerant Recv: it returns ErrPeerDead when the
// world's failure detector declares src dead, before a matching message
// arrives or while the payload is still in flight. Without a detector
// no death is ever declared.
func (r *Rank) RecvFT(p *sim.Proc, src, tag int, buf *machine.Buffer, size int64) error {
	return r.newOp(false, src, tag, buf, size, r.world.det).run(p)
}

// StartRecv runs RecvFT's protocol without a process, as StartSend
// does for SendFT: then gets RecvFT's outcome once the payload is in
// place.
func (r *Rank) StartRecv(src, tag int, buf *machine.Buffer, size int64, then func(error)) {
	r.newOp(false, src, tag, buf, size, r.world.det).start(then)
}

// accountSend feeds the §6 sending-bandwidth profiling counters.
func (r *Rank) accountSend(size int64, busy sim.Duration) {
	r.Node.Counters.BytesSent += float64(size)
	r.Node.Counters.SendBusySecs += busy.Seconds()
}
