package mpi

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// PingPong holds the configuration of a NetPIPE-style ping-pong between
// two ranks (§2.1 of the paper): the initiator sends `Size` bytes and
// waits for the echo; latency is half the round-trip, bandwidth is
// Size/latency. Buffers are recycled across iterations, so rendezvous
// registration is paid once (registration cache).
type PingPong struct {
	Size   int64
	Iters  int
	Warmup int
	// InitBuf/RespBuf are the (recycled) buffers at each end; their NUMA
	// placement is part of the experiment. Nil buffers allocate on each
	// rank's NIC NUMA node.
	InitBuf, RespBuf *machine.Buffer
}

// pingTag separates ping-pong traffic from other traffic: the ping
// travels on pingTag and the echo on pingTag+1.
const pingTag = 7000

// Start runs the ping-pong between ranks 0 and 1 of w with no process:
// the initiator on rank 0, which first waits warm when it is positive,
// then the responder on rank 1, each a chain of sends and receives (the
// protocol of Send and Recv) started from an event of this instant, in
// that order. Each rank's communication core is marked active (the
// thread busy-polls the library) for its part. done, when non-nil, runs
// in event context once the initiator's last iteration is over, with
// one half-round-trip latency per measured iteration. An operation that
// fails — a lossy schedule exhausting its retry budget — panics, as
// Send and Recv do.
func (pp *PingPong) Start(w *World, warm sim.Duration, done func(lats []sim.Duration)) {
	x := w.pingPong
	if x == nil || x.running > 0 {
		x = &pingPong{}
		x.init = pingSide{x: x, r: w.ranks[0], peer: 1, initiator: true}
		x.resp = pingSide{x: x, r: w.ranks[1], peer: 0}
		for _, s := range []*pingSide{&x.init, &x.resp} {
			s.beginFn, s.nextFn = s.begin, s.next
		}
		x.warmCont = sim.MakeCont(x.init.beginFn)
		x.initStartFn = x.initStart
		w.pingPong = x
	}
	x.pp, x.warm, x.done = pp, warm, done
	x.running = 2
	k := w.cluster.K
	k.At(k.Now(), x.initStartFn)
	k.At(k.Now(), x.resp.beginFn)
}

// pingPong is the state of a running PingPong.Start. A world keeps
// one, with its callbacks bound once, for its next ping-pong.
type pingPong struct {
	pp         *PingPong
	init, resp pingSide
	running    int // the sides whose part has not ended
	warm       sim.Duration
	done       func([]sim.Duration)
	lats       []sim.Duration

	initStartFn func()
	warmCont    sim.Cont // begins the initiator's part
}

// pingSide is one rank's part of a ping-pong: a chain of operations
// that alternate between sending and receiving, the initiator sending
// first.
type pingSide struct {
	x         *pingPong
	r         *Rank
	peer      int
	initiator bool
	buf       *machine.Buffer
	ops       int      // operations completed
	t0        sim.Time // the start of the initiator's round trip

	beginFn func()
	nextFn  func(error)
}

// initStart is the initiator's first event: it waits warm, then begins.
func (x *pingPong) initStart() {
	if x.warm > 0 {
		x.init.r.world.cluster.K.SleepCont(&x.warmCont, x.warm)
		return
	}
	x.init.begin()
}

// begin takes the side's buffer, allocated on its NIC NUMA node when
// the configuration gives none, marks its communication core active,
// and starts its first operation.
func (s *pingSide) begin() {
	pp, r := s.x.pp, s.r
	s.buf = pp.RespBuf
	if s.initiator {
		s.buf = pp.InitBuf
		s.x.lats = make([]sim.Duration, 0, pp.Iters)
	}
	if s.buf == nil {
		s.buf = r.Node.Alloc(max(pp.Size, 1), r.Node.Spec.NIC.NUMA)
	}
	r.Node.Freq.SetActive(r.CommCore, topology.Scalar)
	s.ops = 0
	s.op()
}

// op starts the side's next operation, or ends its part.
func (s *pingSide) op() {
	x, pp, r := s.x, s.x.pp, s.r
	if s.ops == 2*(pp.Warmup+pp.Iters) {
		r.Node.Freq.SetIdle(r.CommCore)
		x.running--
		if s.initiator {
			lats, done := x.lats, x.done
			x.lats, x.done = nil, nil
			if done != nil {
				done(lats)
			}
		}
		return
	}
	half := s.ops % 2
	if s.initiator && half == 0 {
		s.t0 = r.world.cluster.K.Now()
	}
	r.newOp(s.initiator == (half == 0), s.peer, pingTag+half, s.buf, pp.Size, nil).start(s.nextFn)
}

// next ends an operation and starts the next one.
func (s *pingSide) next(err error) {
	must(err)
	s.ops++
	if s.initiator && s.ops%2 == 0 && s.ops/2 > s.x.pp.Warmup {
		s.x.lats = append(s.x.lats, s.r.world.cluster.K.Now().Sub(s.t0)/2)
	}
	s.op()
}

// must panics with a failed operation's error, as Send and Recv do.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Bandwidth converts a half-round-trip latency into the NetPIPE
// bandwidth metric for the given message size, in bytes/second.
func Bandwidth(size int64, latency sim.Duration) float64 {
	if latency <= 0 {
		return 0
	}
	return float64(size) / latency.Seconds()
}
