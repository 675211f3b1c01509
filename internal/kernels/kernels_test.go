package kernels

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

func cluster(t *testing.T) *machine.Cluster {
	t.Helper()
	return machine.NewCluster(topology.Henri(), 1, 1)
}

func TestPrimeCountDurationMatchesPaper(t *testing.T) {
	c := cluster(t)
	n := c.Nodes[0]
	var d sim.Duration
	c.K.Spawn("p", func(p *sim.Proc) {
		d = n.ExecCompute(p, 0, PrimeCountDefault())
	})
	c.K.Run()
	// §3.2: ≈183 ms per iteration at sustained turbo.
	if math.Abs(d.Seconds()-0.183) > 0.01 {
		t.Fatalf("prime iteration %v, want ≈183ms", d)
	}
}

func TestPrimeCountScaleInvariantAcrossCores(t *testing.T) {
	// §3.2 footnote: performance is constant regardless of the number of
	// computing cores (no shared resource is touched).
	c := cluster(t)
	n := c.Nodes[0]
	durs := make([]sim.Duration, 20)
	for i := 0; i < 20; i++ {
		i := i
		c.K.Spawn("p", func(p *sim.Proc) {
			durs[i] = n.ExecCompute(p, i, PrimeCountDefault())
		})
	}
	c.K.Run()
	for i, d := range durs {
		if math.Abs(d.Seconds()-durs[0].Seconds()) > 1e-9 {
			t.Fatalf("core %d iteration %v differs from core 0's %v", i, d, durs[0])
		}
	}
}

func TestAVX512WeakScalingMatchesFig3(t *testing.T) {
	run := func(cores int) sim.Duration {
		c := cluster(t)
		n := c.Nodes[0]
		durs := make([]sim.Duration, cores)
		for i := 0; i < cores; i++ {
			i := i
			c.K.Spawn("avx", func(p *sim.Proc) {
				durs[i] = n.ExecCompute(p, i, AVX512Default())
			})
		}
		c.K.Run()
		return durs[0]
	}
	four := run(4)
	twenty := run(20)
	// Fig 3: ≈135 ms at 4 cores (3.0 GHz), ≈210 ms at 20 cores (2.3 GHz
	// AVX-512 licence). Tolerances generous: the shape matters.
	if math.Abs(four.Seconds()-0.135) > 0.015 {
		t.Fatalf("4-core AVX512 iteration %v, want ≈135ms", four)
	}
	if twenty.Seconds() < four.Seconds()*1.2 {
		t.Fatalf("20-core AVX512 iteration %v not slower than 4-core %v (licence)", twenty, four)
	}
	if math.Abs(twenty.Seconds()-0.176) > 0.03 {
		t.Fatalf("20-core AVX512 iteration %v, want ≈176ms (13e9 flops at 2.3GHz×32)", twenty)
	}
}

func TestStreamCopySingleCoreHitsPerCoreCap(t *testing.T) {
	c := cluster(t)
	n := c.Nodes[0]
	// Activate cores elsewhere to raise the uncore to max first.
	var res LoopResult
	loopN(c, n, 0, StreamCopy(DefaultStreamElems, 0), 5, &res)
	c.K.Run()
	// One stream: limited by the per-core cap, 12 GB/s (uncore ramps up
	// once the core activates).
	if res.BytesPerSec < 10e9 || res.BytesPerSec > 12.5e9 {
		t.Fatalf("single-core COPY at %.2f GB/s, want ≈12", res.BytesPerSec/1e9)
	}
}

func TestStreamSaturationCurve(t *testing.T) {
	// STREAM per-core bandwidth must fall once the controller saturates
	// (Fig 4: beyond ≈4 cores on henri).
	perCore := func(cores int) float64 {
		c := cluster(t)
		n := c.Nodes[0]
		res := make([]LoopResult, cores)
		for i := 0; i < cores; i++ {
			loopN(c, n, i, StreamTriad(DefaultStreamElems, 0), 3, &res[i])
		}
		c.K.Run()
		return res[0].BytesPerSec
	}
	one := perCore(1)
	ten := perCore(10)
	thirty := perCore(30)
	if !(one > ten && ten > thirty) {
		t.Fatalf("per-core STREAM bandwidth not decreasing: 1:%.1f 10:%.1f 30:%.1f GB/s",
			one/1e9, ten/1e9, thirty/1e9)
	}
	// 30 streams on a ~50 GB/s controller: ≈1.4–1.8 GB/s each.
	if thirty > 2.5e9 {
		t.Fatalf("30-core per-core bandwidth %.2f GB/s, contention too weak", thirty/1e9)
	}
}

func TestTriadXIntensityLadder(t *testing.T) {
	for _, tc := range []struct {
		cursor int
		wantAI float64
	}{{1, 1.0 / 12}, {12, 1.0}, {72, 6.0}, {1200, 100.0}} {
		ai := Intensity(TriadX(1000, tc.cursor, 0))
		if math.Abs(ai-tc.wantAI) > 1e-12 {
			t.Fatalf("cursor %d: AI %v, want %v", tc.cursor, ai, tc.wantAI)
		}
	}
	if Intensity(PrimeCount(100)) != 0 {
		t.Fatal("pure-compute intensity should report 0 sentinel")
	}
}

func TestTriadXRooflineTransition(t *testing.T) {
	// Under no contention, a single TriadX core transitions from
	// memory-bound (duration flat in cursor) to CPU-bound (duration
	// linear in cursor) around AI = peak/percore-bw = 10/12 ≈ 0.83
	// flop/B... with 35 cores sharing the controller, the ridge moves to
	// ≈6 flop/B (tested at the bench level). Here: single core, the
	// kernel must get strictly slower past the single-core ridge.
	run := func(cursor int) sim.Duration {
		c := cluster(t)
		n := c.Nodes[0]
		var d sim.Duration
		c.K.Spawn("tx", func(p *sim.Proc) {
			d = n.ExecCompute(p, 0, TriadX(1<<20, cursor, 0))
		})
		c.K.Run()
		return d
	}
	low := run(1)    // AI 0.083: memory-bound
	mid := run(10)   // AI 0.83: near the single-core ridge
	high := run(100) // AI 8.3: CPU-bound, 10x the flops of mid
	if float64(mid) > float64(low)*2 {
		t.Fatalf("memory-bound region not flat: cursor1=%v cursor10=%v", low, mid)
	}
	if float64(high) < float64(mid)*5 {
		t.Fatalf("CPU-bound region not linear in cursor: cursor10=%v cursor100=%v", mid, high)
	}
}

func TestGEMMvsCGIntensity(t *testing.T) {
	gemm := GEMMTile(512, 0)
	cg := CGBlock(2048, 2048, 0)
	if ai := Intensity(gemm); math.Abs(ai-512.0/12) > 1e-9 {
		t.Fatalf("GEMM tile AI %v, want %v", ai, 512.0/12)
	}
	if ai := Intensity(cg); math.Abs(ai-0.25) > 1e-12 {
		t.Fatalf("CG block AI %v, want 0.25", ai)
	}
}

func TestGEMMLowStallCGHighStall(t *testing.T) {
	// Fig 10: with the node full of workers, CG shows ≈70% memory
	// stalls, GEMM ≈20%.
	stalls := func(spec machine.ComputeSpec) float64 {
		c := cluster(t)
		n := c.Nodes[0]
		const workers = 34
		for i := 0; i < workers; i++ {
			s := spec
			s.MemNUMA = i / 9 // spread data across NUMA nodes
			loopN(c, n, i, s, 2, new(LoopResult))
		}
		c.K.Run()
		return n.Counters.StallFraction()
	}
	cg := stalls(CGBlock(2048, 2048, 0))
	gemm := stalls(GEMMTile(512, 0))
	if cg < 0.55 || cg > 0.9 {
		t.Fatalf("CG stall fraction %.2f, want ≈0.7", cg)
	}
	if gemm > 0.4 {
		t.Fatalf("GEMM stall fraction %.2f, want ≈0.2", gemm)
	}
	if cg <= gemm {
		t.Fatal("CG not more memory-stalled than GEMM")
	}
}

func TestLoopUntilFinishesInFlightIteration(t *testing.T) {
	c := cluster(t)
	n := c.Nodes[0]
	var res LoopResult
	until := sim.Time(500 * sim.Millisecond)
	startLoop(c, n, 0, PrimeCount(2.5e9), func() bool { return c.K.Now() < until }, &res)
	c.K.Run()
	if res.Iters < 1 {
		t.Fatal("no iterations completed")
	}
	// Each iteration is 0.25 s at 2.5GHz×4; until=0.5 s → 2 iterations.
	if res.Iters != 2 {
		t.Fatalf("iters = %d, want 2", res.Iters)
	}
	if res.PerIter.Seconds() < 0.2 {
		t.Fatalf("per-iter %v", res.PerIter)
	}
}
