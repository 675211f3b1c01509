package kernels

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// streamLoop runs Fig 4's contention shape on c's first node: 35 STREAM
// TRIAD cores looping over data on NUMA 0, iters slices each. It
// returns the number of slices run.
func streamLoop(c *machine.Cluster, iters int) int {
	const cores = 35
	n := c.Nodes[0]
	for core := 0; core < cores; core++ {
		core := core
		c.K.Spawn("triad", func(p *sim.Proc) {
			LoopN(p, n, core, StreamTriad(DefaultStreamElems, 0), iters)
		})
	}
	c.K.Run()
	return cores * iters
}

// TestStreamLoopSolvesPerSlice bounds the fluid solves a memory-bound
// loop slice costs: the boundary between two slices (census update,
// flow start) is one held solve, and the completions of slices ending
// together share one more, so a slice averages at most 2.
func TestStreamLoopSolvesPerSlice(t *testing.T) {
	c := machine.NewCluster(topology.Henri(), 1, 1)
	before := c.Fluid.Solves()
	slices := streamLoop(c, 10)
	per := float64(c.Fluid.Solves()-before) / float64(slices)
	if per > 2 {
		t.Fatalf("%.2f fluid solves per loop slice, want <= 2", per)
	}
}

// BenchmarkStreamLoop times the loop slices of streamLoop on a pooled
// (reset) henri node. solves/slice is a deterministic count, the figure
// CI ratchets; ns/slice is the wall cost of one simulated slice.
func BenchmarkStreamLoop(b *testing.B) {
	spec := topology.Henri()
	c := machine.NewCluster(spec, 1, 1)
	var solves uint64
	slices := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(spec, 1)
		before := c.Fluid.Solves()
		slices += streamLoop(c, 10)
		solves += c.Fluid.Solves() - before
	}
	b.ReportMetric(float64(solves)/float64(slices), "solves/slice")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slices), "ns/slice")
}
