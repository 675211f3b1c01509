package machine

import (
	"repro/internal/fluid"
	"repro/internal/sim"
)

// SequentialExecCompute runs one slice the way ExecCompute did before
// compute loops existed: the core goes active, the stream census grows,
// the flow starts, and at the end the census shrinks and the core
// idles, each its own fluid mutation. On a cluster whose fluid model
// has UseHolds(false) it is the per-slice sequence StartLoop must
// reproduce.
func (n *Node) SequentialExecCompute(p *sim.Proc, core int, spec ComputeSpec) sim.Duration {
	if spec.Flops == 0 && spec.Bytes == 0 {
		return 0
	}
	n.gateUp(p)
	name := spec.Name
	if name == "" {
		name = n.computeName(core)
	}
	coreNUMA := n.Spec.NUMAOfCore(core)
	memNUMA := spec.MemNUMA
	if memNUMA < 0 {
		memNUMA = coreNUMA
	}
	n.Freq.SetActive(core, spec.Class)
	defer n.Freq.SetIdle(core)

	start := p.Now()
	done := n.cluster.K.GetSignal()

	rk := n.slot(core)
	rk.class = spec.Class
	var flow *fluid.Flow
	if spec.Bytes == 0 {
		rk.mem = false
		rk.ai = 0
		flow = n.cluster.Fluid.StartFlow(name, spec.Flops, rk.cap(), nil, done.BroadcastFn())
	} else {
		rk.mem = true
		rk.ai = spec.Flops / spec.Bytes
		n.addStream(memNUMA)
		defer n.removeStream(memNUMA)
		flow = n.cluster.Fluid.StartFlow(name, spec.Bytes, rk.cap(),
			n.memPath(coreNUMA, memNUMA), done.BroadcastFn())
	}
	rk.flow = flow
	rhoStart := 0.0
	if spec.Bytes > 0 {
		rhoStart = n.NUMA(memNUMA).Ctrl.Utilization()
	}
	done.Wait(p)
	rk.flow = nil
	n.cluster.K.PutSignal(done)
	n.cluster.Fluid.Recycle(flow)

	elapsed := p.Now().Sub(start)
	n.accountExec(core, spec, memNUMA, rhoStart, elapsed, false)
	return elapsed
}
