package machine_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/fluid"
	"repro/internal/freq"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The loop path (Node.StartLoop from an event, with fluid holds and
// renewed slices) must be indistinguishable from loops of
// SequentialExecCompute on a fluid model with holds off: the per-slice
// sequence every mutation of which re-solves on its own. The one
// documented exception is the stall-cycle estimate of looped
// memory-bound slices (see samePMU).

// loopMode is how a workload's loops run.
type loopMode int

const (
	sequential loopMode = iota // SequentialExecCompute in a process, holds off
	event                      // Node.StartLoop from an event
)

// looper starts a workload's loops in its mode. Each loop starts in the
// slot a process spawned at that point takes, and stores its result in
// its out slot when it ends.
type looper struct{ mode loopMode }

// while starts a loop of spec on core that runs while cont holds.
func (l looper) while(c *machine.Cluster, n *machine.Node, core int, spec machine.ComputeSpec, cont func() bool, out *kernels.LoopResult) {
	switch l.mode {
	case sequential:
		c.K.Spawn("loop", func(p *sim.Proc) {
			start, iters := p.Now(), 0
			for cont() {
				n.SequentialExecCompute(p, core, spec)
				iters++
			}
			*out = kernels.NewLoopResult(iters, p.Now().Sub(start), spec.Bytes)
		})
	case event:
		c.K.At(c.K.Now(), func() {
			n.StartLoop(core, spec, cont, func(end machine.LoopEnd) {
				*out = kernels.NewLoopResult(end.Iters, end.Total, end.Spec.Bytes)
			})
		})
	}
}

// n starts a loop of iters slices.
func (l looper) n(c *machine.Cluster, n *machine.Node, core int, spec machine.ComputeSpec, iters int, out *kernels.LoopResult) {
	i := 0
	l.while(c, n, core, spec, func() bool { i++; return i <= iters }, out)
}

// until starts a loop that runs until the clock reaches until.
func (l looper) until(c *machine.Cluster, n *machine.Node, core int, spec machine.ComputeSpec, until sim.Time, out *kernels.LoopResult) {
	l.while(c, n, core, spec, func() bool { return c.K.Now() < until }, out)
}

// observed is everything a workload's measurement can read.
type observed struct {
	loops  []kernels.LoopResult
	cores  [][]counters.Core // per node, per core
	energy []float64         // per node
	trace  []freq.Sample     // node 0
	end    sim.Time
	solves uint64
	steps  uint64
}

// runLoops builds a two-node henri cluster, lets workload start its
// loops (each writing its result into its own slot), runs the
// simulation to the end, and collects the observation.
func runLoops(mode loopMode, slots int, workload func(c *machine.Cluster, l looper, out []kernels.LoopResult)) observed {
	c := machine.NewCluster(topology.Henri(), 2, 1)
	c.Fluid.UseHolds(mode != sequential)
	for _, n := range c.Nodes {
		n.Freq.EnableEnergy(freq.DefaultEnergyParams())
	}
	o := observed{loops: make([]kernels.LoopResult, slots)}
	workload(c, looper{mode}, o.loops)
	c.K.Run()
	if c.K.LiveProcs() != 0 {
		panic("workload left live processes")
	}
	if c.Loops() != 0 {
		panic("workload left loops in flight")
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
	o.steps = c.K.Steps()
	return o
}

// sameLoops runs workload in both modes and fails unless the loop path
// matches the sequential run (see sameObservation). It returns the
// sequential run.
func sameLoops(t *testing.T, slots int, workload func(c *machine.Cluster, l looper, out []kernels.LoopResult), baseStall func(node, core int) float64) observed {
	t.Helper()
	seq := runLoops(sequential, slots, workload)
	sameObservation(t, seq, runLoops(event, slots, workload), baseStall)
	return seq
}

// sameObservation fails unless the two runs measured bit-identical
// results (PMU counters as samePMU allows), and the loop path needed
// fewer solves. baseStall gives the BaseStallFrac of the spec a core
// loops over (nil: 0 everywhere).
func sameObservation(t *testing.T, seq, loop observed, baseStall func(node, core int) float64) {
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
	samePMU(t, seq.cores, loop.cores, baseStall)
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

// samePMU fails unless cycles, flops and memory bytes are bit-equal on
// every core, and stall cycles too on cores that moved no memory bytes.
//
// The stall estimate of a memory-bound slice reads the controller's
// utilisation when the slice starts and when it ends. A loop reads it
// without completing its parked flow (fluid Resource.SteadyUtilization):
// it sees the load the renewal keeps, its own stream included, where
// the sequential slices see the allocation the other flows get for the
// instant after the slice's flow has left, or before the other slices
// ending with it restarted. So on a core with memory-bound slices the
// loop's stall cycles may differ; they must still obey accountExec's
// definition — between BaseStallFrac and 0.95 of the cycles — and, a
// loaded bus exposing more of the memory wait, be no fewer than the
// sequential ones.
func samePMU(t *testing.T, seq, loop [][]counters.Core, baseStall func(node, core int) float64) {
	t.Helper()
	bits := math.Float64bits
	const slack = 1 + 1e-12 // sums of per-slice fractions against the fraction of the sum
	for n := range seq {
		for c, a := range seq[n] {
			b := loop[n][c]
			if bits(a.Cycles) != bits(b.Cycles) || bits(a.Flops) != bits(b.Flops) || bits(a.MemBytes) != bits(b.MemBytes) {
				t.Fatalf("node %d core %d: PMU %+v, sequential %+v", n, c, b, a)
			}
			if a.MemBytes == 0 {
				if bits(a.StallCycles) != bits(b.StallCycles) {
					t.Fatalf("node %d core %d (no memory traffic): stall cycles %v, sequential %v", n, c, b.StallCycles, a.StallCycles)
				}
				continue
			}
			base := 0.0
			if baseStall != nil {
				base = baseStall(n, c)
			}
			if b.StallCycles < a.StallCycles || b.StallCycles > 0.95*b.Cycles*slack || b.StallCycles*slack < base*b.Cycles {
				t.Fatalf("node %d core %d: %v stall cycles of %v, sequential %v; want in [%v, 0.95] of the cycles and no fewer",
					n, c, b.StallCycles, b.Cycles, a.StallCycles, base)
			}
		}
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
				switch core % 3 {
				case 0:
					l.n(c, n, core, spec, 5+core%4, &out[slot])
				case 1:
					l.while(c, n, core, spec, func() bool { return !stop }, &out[slot])
				default:
					l.until(c, n, core, spec, sim.Time(3*sim.Millisecond), &out[slot])
				}
			}
		}
		n := c.Nodes[0]
		var bg machine.Background
		c.K.At(sim.Time(500*sim.Microsecond), func() { bg = n.BackgroundStream("bg", 0, 2, 4e9) })
		c.K.At(sim.Time(sim.Millisecond), func() { n.Freq.SetUncoreFixed(1.6) })
		c.K.At(sim.Time(1500*sim.Microsecond), func() { n.SetCoreSlowdown(7, 2) })
		c.K.At(sim.Time(2*sim.Millisecond), func() { bg.Stop(); n.Freq.SetUncoreDynamic() })
		c.K.At(sim.Time(4*sim.Millisecond), func() { stop = true })
	}
	seq := sameLoops(t, 2*cores, workload, nil)
	if seq.loops[1].Iters < 2 {
		t.Fatalf("LoopWhile ran %d slices; the workload is too short", seq.loops[1].Iters)
	}
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
			l.while(c, n, core, spec, func() bool { return !stop }, &out[core])
		}
		c.K.Spawn("comm", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				n.ExecCycles(p, 30, 2000)
				p.Sleep(50 * sim.Microsecond)
			}
			stop = true
		})
	}
	seq := sameLoops(t, cores, workload, nil)
	if len(seq.trace) < 100 {
		t.Fatalf("only %d trace samples; the workload does not move frequencies", len(seq.trace))
	}
}

// TestLoopCrashGatesNextSlice: a node that crashes mid-slice lets the
// in-flight slice finish, then holds the loop at the slice boundary —
// core idle, no stream, no flow — until it recovers; and the whole run
// matches the sequential one.
func TestLoopCrashGatesNextSlice(t *testing.T) {
	spec := kernels.StreamTriad(1<<16, 0)
	// One slice alone on the node.
	solo := runLoops(event, 1, func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		l.n(c, c.Nodes[0], 0, spec, 1, &out[0])
	})
	d := solo.loops[0].Total

	probes := 0
	workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		n := c.Nodes[0]
		l.n(c, n, 0, spec, 3, &out[0])
		for core := 1; core < 6; core++ {
			l.n(c, c.Nodes[1], core, mixedSpec(core), 4, &out[core])
		}
		c.K.At(sim.Time(d/2), func() { n.SetDown(true) })
		c.K.At(sim.Time(3*d), func() { n.SetDown(false) })
		c.K.At(sim.Time(5*d/2), func() {
			probes++
			if n.Streams(0) != 0 || n.Freq.ActiveCores() != 0 {
				t.Errorf("down node still has %d streams, %d active cores", n.Streams(0), n.Freq.ActiveCores())
			}
		})
	}
	seq := sameLoops(t, 6, workload, nil)
	if probes != 2 {
		t.Fatalf("probe ran %d times in 2 runs", probes)
	}
	// Slice 1 runs [0, d], the crash holds slice 2 until 3d, slices 2
	// and 3 run alone after it.
	if got := seq.loops[0].Total; got < 5*d-3 || got > 5*d+3 {
		t.Fatalf("crashed loop took %v, want 5 slices of %v", got, d)
	}
}

// TestLoopStopAtCompletionInstant: an event at the very nanosecond a
// slice ends, queued after the completion timer was armed, runs before
// the loop decides on its next slice — the loop asks next in its
// continuation, woken by the completion. A stopper that sets the flag at the
// end of slice 2 stops the loop after 2 slices, as the sequential loop.
// A loop alone on the other node renews its slices from then on, and
// its node's energy still sums the same per-slice intervals.
func TestLoopStopAtCompletionInstant(t *testing.T) {
	spec := kernels.StreamTriad(1<<16, 0)
	d := soloSlice(spec)
	workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		stop := false
		n := c.Nodes[0]
		l.while(c, n, 1, spec, func() bool { return !stop }, &out[0])
		l.n(c, c.Nodes[1], 1, spec, 6, &out[1])
		c.K.Spawn("stopper", func(p *sim.Proc) {
			p.Sleep(d + d/2)
			p.Sleep(d - d/2) // scheduled after slice 2's timer, for its instant
			stop = true
		})
	}
	seq := sameLoops(t, 2, workload, nil)
	if seq.loops[0].Iters != 2 {
		t.Fatalf("sequential loop ran %d slices, want 2", seq.loops[0].Iters)
	}
}

// TestLoopStateChangeAtCompletionInstant: a straggler slowdown or a
// crash at the very instant a slice ends, before the loop wakes, finds
// the slice's flow finished and rescales or stops nothing. The next
// slice must then start as in the sequential loop — at the slowed
// core's cap, or once the node has recovered — rather than renew the
// slice as it was.
func TestLoopStateChangeAtCompletionInstant(t *testing.T) {
	spec := kernels.StreamTriad(1<<16, 0)
	d := soloSlice(spec)
	for name, change := range map[string]func(c *machine.Cluster){
		"slowdown": func(c *machine.Cluster) { c.Nodes[0].SetCoreSlowdown(1, 4) },
		"crash": func(c *machine.Cluster) {
			c.Nodes[0].SetDown(true)
			c.K.After(3*d, func() { c.Nodes[0].SetDown(false) })
		},
	} {
		workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
			l.n(c, c.Nodes[0], 1, spec, 3, &out[0])
			c.K.Spawn("change", func(p *sim.Proc) {
				p.Sleep(d)
				change(c)
			})
		}
		seq := sameLoops(t, 1, workload, nil)
		if seq.loops[0].Total < 3*d+d/2 {
			t.Fatalf("%s: loop took %v, barely more than 3 solo slices of %v", name, seq.loops[0].Total, d)
		}
	}
}

// TestLoopSharesControllerWithPingPong: STREAM loops on NUMA 0's
// cores and CG loops from NUMA 1 share NUMA 0's controller with a
// bandwidth ping-pong's traffic — NIC DMA reads at the census-dependent
// DMA priority and comm-core memcpys — whose transfers start and end in
// the middle of slices and around their boundaries. Some boundaries
// find a transfer's flow, or the other loops', behind the ending slices
// in the flow list and must restart them; others renew. The ping-pong
// also reads the access latency at the very instant the first STREAM
// slices end, which completes their parked flows. Every slice, transfer
// and latency matches the sequential run.
func TestLoopSharesControllerWithPingPong(t *testing.T) {
	const transfers = 24
	stream, cg := []int{1, 2, 3, 4, 5, 6}, []int{9, 10}
	spec := func(core int) machine.ComputeSpec {
		if core >= 9 {
			return kernels.CGBlock(256, 1024, 0)
		}
		return kernels.StreamTriad(1<<16, 0)
	}
	// The CG loops start first, so the STREAM slices, ending together
	// before the longer CG slices, are the tail of the flow list.
	cores := append(append([]int{}, cg...), stream...)
	loops := func(c *machine.Cluster, l looper, out []kernels.LoopResult, next func() bool) {
		for i, core := range cores {
			l.while(c, c.Nodes[0], core, spec(core), next, &out[i])
		}
	}
	first := runLoops(event, len(cores), func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		loops(c, l, out, func() bool { return c.K.Now() == 0 })
	})
	d := first.loops[len(cg)].Total // the first STREAM slices' end
	if cgEnd := first.loops[0].Total; cgEnd <= d {
		t.Fatalf("CG slices end at %v, before the STREAM slices at %v", cgEnd, d)
	}

	workload := func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		n := c.Nodes[0]
		stop := false
		loops(c, l, out, func() bool { return !stop })
		nic := n.Spec.NIC.NUMA
		xfer := func(p *sim.Proc, fs fluid.FlowSpec) sim.Duration {
			start := p.Now()
			done := sim.NewSignal(c.K)
			fs.OnDone = done.Broadcast
			c.Fluid.Start(fs)
			done.Wait(p)
			return p.Now().Sub(start)
		}
		// Results past the loops' slots: the latency read at d, then each
		// transfer's duration.
		res := out[len(cores):]
		c.K.Spawn("pingpong", func(p *sim.Proc) {
			p.Sleep(d)
			res[0].Total = n.AccessLatency(nic, 0)
			for i := 1; i <= transfers; i++ {
				size := float64((1 + (7*i)%5) << 18)
				if i%2 == 0 {
					uses := append(n.MemPath(nic, 0), fluid.Use{Resource: n.PCIeTx, Weight: 1})
					res[i].Total = xfer(p, fluid.FlowSpec{Name: "dma", Work: size, Priority: n.DMAPriority(0), Uses: uses})
				} else {
					res[i].Total = xfer(p, fluid.FlowSpec{Name: "memcpy", Work: size,
						Cap: n.Spec.Mem.StreamPerCoreGBs * 1e9, Uses: n.MemPath(0, 0)})
				}
				p.Sleep(sim.Duration(100+(97*i)%500) * sim.Microsecond)
			}
			stop = true
		})
	}
	slots := len(cores) + 1 + transfers
	seq := sameLoops(t, slots, workload, func(node, core int) float64 { return spec(core).BaseStallFrac })
	if seq.loops[len(cg)].Iters < 10 {
		t.Fatalf("a STREAM loop ran %d slices; the ping-pong is too short", seq.loops[len(cg)].Iters)
	}
}

// soloSlice returns the duration of one slice of spec alone on core 1
// of a node.
func soloSlice(spec machine.ComputeSpec) sim.Duration {
	solo := runLoops(event, 1, func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		l.n(c, c.Nodes[0], 1, spec, 1, &out[0])
	})
	return solo.loops[0].Total
}

// TestLoopStopsAtCrashInstant: a node goes down for good at the very
// instant a slice ends, before the loop wakes, and the same event tells
// the loop to stop: the loop ends after that slice rather than waiting
// on the node's recovery, leaving its core idle and no stream counted.
// The node's other loop, which asks for more, is held at its next
// boundary — the only loop left in flight — until a recovery lets it
// finish.
func TestLoopStopsAtCrashInstant(t *testing.T) {
	spec := kernels.StreamTriad(1<<16, 0)
	probes := 0
	// crashAt 0 runs the first slice alone, to find when it ends.
	workload := func(crashAt sim.Duration) func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
		return func(c *machine.Cluster, l looper, out []kernels.LoopResult) {
			n := c.Nodes[0]
			stop := false
			if crashAt == 0 {
				l.n(c, n, 1, spec, 1, &out[0])
			} else {
				l.while(c, n, 1, spec, func() bool { return !stop }, &out[0])
			}
			l.until(c, n, 2, kernels.PrimeCount(1e6), sim.Time(sim.Millisecond), &out[1])
			l.n(c, c.Nodes[1], 1, spec, 4, &out[2])
			if crashAt == 0 {
				return
			}
			c.K.Spawn("crash", func(p *sim.Proc) {
				p.Sleep(crashAt / 2)
				p.Sleep(crashAt - crashAt/2) // scheduled before the loop's wakeup, for its instant
				n.SetDown(true)
				stop = true
			})
			c.K.At(sim.Time(5*crashAt), func() {
				probes++
				inFlight := 1
				if l.mode == sequential {
					inFlight = 0 // SequentialExecCompute starts no loop
				}
				if n.Streams(0) != 0 || n.Freq.ActiveCores() != 0 || c.Loops() != inFlight {
					t.Errorf("down node has %d streams, %d active cores and %d loops in flight, want %d",
						n.Streams(0), n.Freq.ActiveCores(), c.Loops(), inFlight)
				}
				n.SetDown(false)
			})
		}
	}
	d := runLoops(event, 3, workload(0)).loops[0].Total
	if 5*d >= sim.Duration(sim.Millisecond) {
		t.Fatalf("a slice takes %v; the recovery comes after the held loop's end", d)
	}
	seq := sameLoops(t, 3, workload(d), nil)
	if probes != 2 {
		t.Fatalf("probe ran %d times in 2 runs", probes)
	}
	if got := seq.loops[0]; got.Iters != 1 || got.Total != d {
		t.Fatalf("stopped loop ran %d slices in %v, want 1 in %v", got.Iters, got.Total, d)
	}
}
