package mpi

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Overlap measures how well non-blocking communication overlaps with
// computation, after the methodology of Denis & Trahay's MPI overlap
// benchmark (the paper's reference [7]): measure the computation alone,
// the communication alone, then Isend + computation + Wait, and report
// how much of the shorter phase was hidden inside the longer one.
type Overlap struct {
	// Size is the transferred message size.
	Size int64
	// Compute is the per-iteration computation slice, run on ComputeCore
	// while the transfer progresses.
	Compute     machine.ComputeSpec
	ComputeCore int
	// Iters averages over several measurements.
	Iters int
}

// OverlapResult reports the three phase timings and the overlap ratio:
// 0 means fully serialized (t_both = t_comm + t_comp), 1 means the
// shorter phase was completely hidden (t_both = max(t_comm, t_comp)).
type OverlapResult struct {
	CommAlone, ComputeAlone, Together sim.Duration
	Ratio                             float64
}

// Run executes the overlap benchmark from rank r (the sender) against
// the peer, whose process must be executing RunPeer concurrently.
func (o *Overlap) Run(p *sim.Proc, r *Rank, peer int) OverlapResult {
	iters := o.Iters
	if iters <= 0 {
		iters = 3
	}
	buf := r.Node.Alloc(max(o.Size, 1), r.Node.Spec.NIC.NUMA)
	node := r.Node

	var res OverlapResult
	// Phase 1: communication alone.
	start := p.Now()
	for i := 0; i < iters; i++ {
		r.Send(p, peer, overlapTag, buf, o.Size)
		r.Recv(p, peer, overlapTag+1, nil, 0) // ack keeps phases in lockstep
	}
	res.CommAlone = p.Now().Sub(start) / sim.Duration(iters)

	// Phase 2: computation alone.
	start = p.Now()
	for i := 0; i < iters; i++ {
		node.ExecCompute(p, o.ComputeCore, o.Compute)
	}
	res.ComputeAlone = p.Now().Sub(start) / sim.Duration(iters)

	// Phase 3: Isend + computation + Wait.
	start = p.Now()
	for i := 0; i < iters; i++ {
		req := r.Isend(peer, overlapTag, buf, o.Size)
		node.ExecCompute(p, o.ComputeCore, o.Compute)
		req.Wait(p)
		r.Recv(p, peer, overlapTag+1, nil, 0)
	}
	res.Together = p.Now().Sub(start) / sim.Duration(iters)

	// Ratio per [7]: fraction of the shorter phase hidden by the longer.
	long := res.CommAlone
	short := res.ComputeAlone
	if short > long {
		long, short = short, long
	}
	if short > 0 {
		res.Ratio = float64(res.CommAlone+res.ComputeAlone-res.Together) / float64(short)
	}
	if res.Ratio < 0 {
		res.Ratio = 0
	}
	if res.Ratio > 1 {
		res.Ratio = 1
	}
	return res
}

// RunPeer executes the passive side: it sinks the messages and returns
// the lockstep acks. Must run for the same Overlap configuration.
func (o *Overlap) RunPeer(p *sim.Proc, r *Rank, peer int) {
	iters := o.Iters
	if iters <= 0 {
		iters = 3
	}
	buf := r.Node.Alloc(max(o.Size, 1), r.Node.Spec.NIC.NUMA)
	// Phases 1 and 3 each perform iters receive+ack rounds.
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < iters; i++ {
			r.Recv(p, peer, overlapTag, buf, o.Size)
			r.Send(p, peer, overlapTag+1, nil, 0)
		}
	}
}

const overlapTag = 8600
