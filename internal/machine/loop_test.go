package machine_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/freq"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The loop path (kernels.LoopN/LoopWhile/LoopUntil over Node.ExecLoop,
// with fluid holds) must be indistinguishable from loops of
// SequentialExecCompute on a fluid model with holds off: the per-slice
// sequence every mutation of which re-solves on its own.

// looper runs a workload's loops either way.
type looper struct{ sequential bool }

func (l looper) result(start, end sim.Time, iters int, spec machine.ComputeSpec) kernels.LoopResult {
	res := kernels.LoopResult{Iters: iters, Total: end.Sub(start)}
	if iters > 0 {
		res.PerIter = res.Total / sim.Duration(iters)
	}
	if res.Total > 0 {
		res.BytesPerSec = float64(iters) * spec.Bytes / res.Total.Seconds()
	}
	return res
}

func (l looper) while(p *sim.Proc, n *machine.Node, core int, spec machine.ComputeSpec, cont func() bool) kernels.LoopResult {
	if !l.sequential {
		return kernels.LoopWhile(p, n, core, spec, cont)
	}
	start, iters := p.Now(), 0
	for cont() {
		n.SequentialExecCompute(p, core, spec)
		iters++
	}
	return l.result(start, p.Now(), iters, spec)
}

func (l looper) n(p *sim.Proc, n *machine.Node, core int, spec machine.ComputeSpec, iters int) kernels.LoopResult {
	if !l.sequential {
		return kernels.LoopN(p, n, core, spec, iters)
	}
	start := p.Now()
	for i := 0; i < iters; i++ {
		n.SequentialExecCompute(p, core, spec)
	}
	return l.result(start, p.Now(), iters, spec)
}

func (l looper) until(p *sim.Proc, n *machine.Node, core int, spec machine.ComputeSpec, until sim.Time) kernels.LoopResult {
	if !l.sequential {
		return kernels.LoopUntil(p, n, core, spec, until)
	}
	start, iters := p.Now(), 0
	for p.Now() < until {
		n.SequentialExecCompute(p, core, spec)
		iters++
	}
	return l.result(start, p.Now(), iters, spec)
}

// observed is everything a workload's measurement can read.
type observed struct {
	loops  []kernels.LoopResult
	cores  [][]counters.Core // per node, per core
	energy []float64         // per node
	trace  []freq.Sample     // node 0
	end    sim.Time
	solves uint64
}

// runLoops builds a two-node henri cluster, lets workload spawn its
// loops (each writing its result into its own slot), runs the
// simulation to the end, and collects the observation.
func runLoops(sequential bool, slots int, workload func(c *machine.Cluster, l looper, out []kernels.LoopResult)) observed {
	c := machine.NewCluster(topology.Henri(), 2, 1)
	c.Fluid.UseHolds(!sequential)
	for _, n := range c.Nodes {
		n.Freq.EnableEnergy(freq.DefaultEnergyParams())
	}
	o := observed{loops: make([]kernels.LoopResult, slots)}
	workload(c, looper{sequential}, o.loops)
	c.K.Run()
	if c.K.LiveProcs() != 0 {
		panic("workload left live processes")
	}
	for _, n := range c.Nodes {
		var cores []counters.Core
		for i := 0; i < n.Spec.Cores(); i++ {
			cores = append(cores, *n.Counters.Core(i))
		}
		o.cores = append(o.cores, cores)
		o.energy = append(o.energy, n.Freq.EnergyJoules())
	}
	o.trace = c.Nodes[0].Freq.StopTrace()
	o.end = c.K.Now()
	o.solves = c.Fluid.Solves()
	return o
}

// sameObservation fails unless the two runs measured bit-identical
// results, and the loop path needed fewer solves.
func sameObservation(t *testing.T, seq, loop observed) {
	t.Helper()
	if seq.end != loop.end {
		t.Fatalf("simulation ended at %v, sequential at %v", loop.end, seq.end)
	}
	for i := range seq.loops {
		a, b := seq.loops[i], loop.loops[i]
		if a.Iters != b.Iters || a.Total != b.Total || a.PerIter != b.PerIter ||
			math.Float64bits(a.BytesPerSec) != math.Float64bits(b.BytesPerSec) {
			t.Fatalf("loop %d: %+v, sequential %+v", i, b, a)
		}
	}
	if !reflect.DeepEqual(seq.cores, loop.cores) {
		t.Fatal("PMU counters differ from the sequential run")
	}
	for i := range seq.energy {
		if math.Float64bits(seq.energy[i]) != math.Float64bits(loop.energy[i]) {
			t.Fatalf("node %d energy %x J, sequential %x J", i, loop.energy[i], seq.energy[i])
		}
	}
	if !reflect.DeepEqual(seq.trace, loop.trace) {
		t.Fatalf("frequency trace differs: %d samples, sequential %d", len(loop.trace), len(seq.trace))
	}
	if loop.solves >= seq.solves {
		t.Fatalf("loop path ran %d solves, sequential %d", loop.solves, seq.solves)
	}
}

// mixedSpec gives each core a different kernel and slice size, so slice
// boundaries are staggered and contend with each other: pure-CPU prime
// and AVX-512 slices (the latter move the licence frequency) and STREAM
// TRIAD slices on every NUMA node, local and remote.
func mixedSpec(core int) machine.ComputeSpec {
	switch core % 5 {
	case 0:
		return kernels.PrimeCount(2e6 + float64(core)*1e5)
	case 1:
		return kernels.AVX512(3e7 + float64(core)*1e6)
	}
	return kernels.StreamTriad(1<<15+int64(core)*997, core%4)
}

// TestLoopsMatchSequentialSlices: 35 cores on each of two nodes run
// LoopN, LoopWhile and LoopUntil over mixed kernels while background
// traffic comes and goes, the uncore is pinned and released, and a core
// straggles: every measurement matches the sequential run.
func TestLoopsMatchSequentialSlices(t *testing.T) {
	const cores = 35
	workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		stop := false
		for _, n := range c.Nodes {
			n := n
			for core := 0; core < cores; core++ {
				core, slot := core, n.ID*cores+core
				spec := mixedSpec(core + n.ID)
				c.K.Spawn("loop", func(p *sim.Proc) {
					switch core % 3 {
					case 0:
						out[slot] = l.n(p, n, core, spec, 5+core%4)
					case 1:
						out[slot] = l.while(p, n, core, spec, func() bool { return !stop })
					default:
						out[slot] = l.until(p, n, core, spec, sim.Time(3*sim.Millisecond))
					}
				})
			}
		}
		n := c.Nodes[0]
		var cancel func()
		c.K.At(sim.Time(500*sim.Microsecond), func() { cancel = n.BackgroundStream("bg", 0, 2, 4e9) })
		c.K.At(sim.Time(sim.Millisecond), func() { n.Freq.SetUncoreFixed(1.6) })
		c.K.At(sim.Time(1500*sim.Microsecond), func() { n.SetCoreSlowdown(7, 2) })
		c.K.At(sim.Time(2*sim.Millisecond), func() { cancel(); n.Freq.SetUncoreDynamic() })
		c.K.At(sim.Time(4*sim.Millisecond), func() { stop = true })
	}
	seq := runLoops(true, 2*cores, workload)
	loop := runLoops(false, 2*cores, workload)
	if seq.loops[1].Iters < 2 {
		t.Fatalf("LoopWhile ran %d slices; the workload is too short", seq.loops[1].Iters)
	}
	sameObservation(t, seq, loop)
}

// TestLoopsMatchSequentialTrace: fig2's shape — prime-counting cores
// looping beside a traced node — yields the same frequency trace,
// sample for sample: each slice boundary still idles and wakes the
// core.
func TestLoopsMatchSequentialTrace(t *testing.T) {
	const cores = 20
	workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		n := c.Nodes[0]
		n.Freq.StartTrace()
		stop := false
		for core := 0; core < cores; core++ {
			core := core
			spec := kernels.PrimeCount(5e6 + float64(core%4)*2e6)
			if core%4 == 3 {
				spec = kernels.StreamTriad(1<<15, 0)
			}
			c.K.Spawn("prime", func(p *sim.Proc) {
				out[core] = l.while(p, n, core, spec, func() bool { return !stop })
			})
		}
		c.K.Spawn("comm", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				n.ExecCycles(p, 30, 2000)
				p.Sleep(50 * sim.Microsecond)
			}
			stop = true
		})
	}
	seq := runLoops(true, cores, workload)
	loop := runLoops(false, cores, workload)
	if len(seq.trace) < 100 {
		t.Fatalf("only %d trace samples; the workload does not move frequencies", len(seq.trace))
	}
	sameObservation(t, seq, loop)
}

// TestLoopCrashGatesNextSlice: a node that crashes mid-slice lets the
// in-flight slice finish, then holds the loop at the slice boundary —
// core idle, no stream, no flow — until it recovers; and the whole run
// matches the sequential one.
func TestLoopCrashGatesNextSlice(t *testing.T) {
	spec := kernels.StreamTriad(1<<16, 0)
	// One slice alone on the node.
	solo := runLoops(false, 1, func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		c.K.Spawn("solo", func(p *sim.Proc) { out[0] = l.n(p, c.Nodes[0], 0, spec, 1) })
	})
	d := solo.loops[0].Total

	probed := false
	workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		n := c.Nodes[0]
		c.K.Spawn("loop", func(p *sim.Proc) { out[0] = l.n(p, n, 0, spec, 3) })
		for core := 1; core < 6; core++ {
			core := core
			c.K.Spawn("other", func(p *sim.Proc) { out[core] = l.n(p, c.Nodes[1], core, mixedSpec(core), 4) })
		}
		c.K.At(sim.Time(d/2), func() { n.SetDown(true) })
		c.K.At(sim.Time(3*d), func() { n.SetDown(false) })
		c.K.At(sim.Time(5*d/2), func() {
			probed = true
			if n.Streams(0) != 0 || n.Freq.ActiveCores() != 0 {
				t.Errorf("down node still has %d streams, %d active cores", n.Streams(0), n.Freq.ActiveCores())
			}
		})
	}
	seq := runLoops(true, 6, workload)
	loop := runLoops(false, 6, workload)
	if !probed {
		t.Fatal("probe did not run")
	}
	// Slice 1 runs [0, d], the crash holds slice 2 until 3d, slices 2
	// and 3 run alone after it.
	if got := loop.loops[0].Total; got < 5*d-3 || got > 5*d+3 {
		t.Fatalf("crashed loop took %v, want 5 slices of %v", got, d)
	}
	sameObservation(t, seq, loop)
}
