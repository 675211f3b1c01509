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

// Initiate runs the initiator side on rank r against peer, returning
// one half-round-trip latency per measured iteration. It must run in
// r's communication-thread process while Respond runs in peer's. The
// communication core is marked active (the thread busy-polls the
// library) for the duration.
func (pp *PingPong) Initiate(p *sim.Proc, r *Rank, peer int) []sim.Duration {
	buf := pp.InitBuf
	if buf == nil {
		buf = r.Node.Alloc(max(pp.Size, 1), r.Node.Spec.NIC.NUMA)
	}
	r.Node.Freq.SetActive(r.CommCore, topology.Scalar)
	defer r.Node.Freq.SetIdle(r.CommCore)

	lats := make([]sim.Duration, 0, pp.Iters)
	for i := 0; i < pp.Warmup+pp.Iters; i++ {
		start := p.Now()
		r.Send(p, peer, pingTag, buf, pp.Size)
		r.Recv(p, peer, pingTag+1, buf, pp.Size)
		if i >= pp.Warmup {
			lats = append(lats, p.Now().Sub(start)/2)
		}
	}
	return lats
}

// Respond runs the responder side on rank r against peer.
func (pp *PingPong) Respond(p *sim.Proc, r *Rank, peer int) {
	buf := pp.RespBuf
	if buf == nil {
		buf = r.Node.Alloc(max(pp.Size, 1), r.Node.Spec.NIC.NUMA)
	}
	r.Node.Freq.SetActive(r.CommCore, topology.Scalar)
	defer r.Node.Freq.SetIdle(r.CommCore)

	for i := 0; i < pp.Warmup+pp.Iters; i++ {
		r.Recv(p, peer, pingTag, buf, pp.Size)
		r.Send(p, peer, pingTag+1, buf, pp.Size)
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
