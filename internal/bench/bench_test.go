package bench

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topology"
)

// quietEnv returns a single-run, noise-free henri environment for fast
// deterministic shape tests.
func quietEnv() Env {
	spec := topology.Henri()
	spec.NIC.NoiseFrac = 0
	return Env{Spec: spec, Seed: 1, Runs: 1}
}

func TestInterferenceProtocolBaseline(t *testing.T) {
	// No computation: comm-alone and together must agree.
	env := quietEnv()
	alone := commAlone(env, LatencyConfig())
	_, _, with := together(env, LatencyConfig(), ComputeConfig{})
	if alone.N == 0 || with.N == 0 {
		t.Fatal("missing samples")
	}
	rel := with.Median / alone.Median
	if rel < 0.95 || rel > 1.05 {
		t.Fatalf("no-compute latency drifted: alone %v together %v", alone.Median, with.Median)
	}
	// A comm-only Interference has no side-by-side step to run.
	if r := Interference(env, LatencyConfig(), ComputeConfig{}); r.CommAlone != alone || r.CommTogether.N != 0 {
		t.Fatalf("comm-only Interference: alone %+v together %+v, want alone %+v and no together samples",
			r.CommAlone, r.CommTogether, alone)
	}
}

// TestComputeBesideStopsWithCommunication pins the side-by-side stop
// rule: every compute loop runs until the communication beside it has
// ended, stops at its first slice boundary after that, and leaves the
// kernel drained. The slice is short next to the communication, so a
// stop at any other instant shows.
func TestComputeBesideStopsWithCommunication(t *testing.T) {
	env := quietEnv()
	slice := kernels.StreamTriad(4<<10, env.Spec.NIC.NUMA)
	warm := sim.Duration(2 * sim.Millisecond)
	type loop struct {
		end sim.Time
		r   kernels.LoopResult
	}
	// record keeps each reported loop with its end: it runs in the loop's
	// process as the loop returns.
	record := func(c *machine.Cluster, loops *[]loop) func(kernels.LoopResult) {
		return func(r kernels.LoopResult) { *loops = append(*loops, loop{c.K.Now(), r}) }
	}
	check := func(t *testing.T, c *machine.Cluster, loops []loop, cores int, commEnd sim.Time) {
		t.Helper()
		if n := c.K.LiveProcs(); n != 0 {
			t.Fatalf("%d processes still live: the kernel did not drain", n)
		}
		if len(loops) != cores {
			t.Fatalf("%d node-0 loops completed an iteration, want all %d", len(loops), cores)
		}
		for i, l := range loops {
			if l.end < commEnd || l.end.Sub(commEnd) > l.r.PerIter {
				t.Errorf("loop %d (%d iterations of %v) ended at %v; the communication ended at %v",
					i, l.r.Iters, l.r.PerIter, l.end, commEnd)
			}
		}
	}

	t.Run("together", func(t *testing.T) {
		c, w := newWorld(env, 2, env.Seed)
		pp := applyComm(w, LatencyConfig())
		var loops []loop
		stop := computeBeside(c, computeCores(env.Spec, 4, w.Rank(0).CommCore), slice, record(c, &loops))
		var commEnd sim.Time
		lats := runPingPong(c, w, pp, warm, func() { commEnd = c.K.Now(); stop() })
		// The measured iterations alone take 2·Σlat after the warm-up
		// sleep: the ping-pong cannot have ended sooner.
		least := warm.Seconds()
		for _, l := range lats {
			least += 2 * l
		}
		if commEnd.Sub(0).Seconds() < least-1e-12 {
			t.Fatalf("done ran at %v, before the ping-pong's %d iterations could end (%gs)", commEnd, len(lats), least)
		}
		check(t, c, loops, 4, commEnd)
	})

	t.Run("collective", func(t *testing.T) {
		// runCollective's shape: an allreduce over four nodes beside
		// every other core of each node, stopped by the last rank done.
		const nodes, size = 4, 1 << 20
		c, w := newWorld(env, nodes, env.Seed)
		cores := computeCores(env.Spec, env.Spec.Cores()-1, w.Rank(0).CommCore)
		var loops []loop
		stop := computeBeside(c, cores, slice, record(c, &loops))
		var commEnd sim.Time
		remaining := nodes
		for i := 0; i < nodes; i++ {
			r := w.Rank(i)
			c.K.Spawn("coll", func(p *sim.Proc) {
				p.Sleep(warm)
				r.Allreduce(p, 1, r.Node.Alloc(size, env.Spec.NIC.NUMA), size)
				if remaining--; remaining == 0 {
					commEnd = p.Now()
					stop()
				}
			})
		}
		c.K.Run()
		if commEnd.Sub(0) <= warm {
			t.Fatalf("allreduce ended at %v, not after the %v warm-up", commEnd, warm)
		}
		check(t, c, loops, len(cores), commEnd)

		// runCollective itself leaves its world drained, quiet and loaded.
		kenv := env
		kenv.keeper = &worldKeeper{}
		for _, n := range []int{0, env.Spec.Cores() - 1} {
			if d := runCollective(kenv, "allreduce", nodes, size, n); d <= 0 {
				t.Fatalf("runCollective with %d cores: duration %v", n, d)
			}
		}
		for _, b := range kenv.keeper.built {
			if n := b.c.K.LiveProcs(); n != 0 {
				t.Fatalf("runCollective left %d processes live", n)
			}
		}
	})
}

func TestComputeCoresSkipCommCore(t *testing.T) {
	spec := topology.Henri()
	cores := computeCores(spec, 10, 3)
	for _, c := range cores {
		if c == 3 {
			t.Fatal("comm core used for computation")
		}
	}
	if len(cores) != 10 || cores[0] != 0 || cores[3] != 4 {
		t.Fatalf("cores %v", cores)
	}
}

func TestFig1LatencyOrdering(t *testing.T) {
	pts := Fig1Frequencies(quietEnv(), []int64{4})
	if len(pts) != 4 {
		t.Fatalf("%d points, want 4 (2 core × 2 uncore)", len(pts))
	}
	byKey := map[[2]float64]FrequencyPoint{}
	for _, p := range pts {
		byKey[[2]float64{p.CoreGHz, p.UncoreGHz}] = p
	}
	lo := byKey[[2]float64{1.0, 2.4}].Latency.Median
	hi := byKey[[2]float64{2.3, 2.4}].Latency.Median
	if lo <= hi {
		t.Fatalf("latency at 1.0GHz (%v) not above 2.3GHz (%v)", lo, hi)
	}
	// Paper: 1.8µs at 2300 MHz, 3.1µs at 1000 MHz (+72%); uncore effect
	// comparatively negligible (+5%).
	ratio := lo / hi
	if ratio < 1.4 || ratio > 2.1 {
		t.Fatalf("core-frequency latency ratio %.2f, want ≈1.7", ratio)
	}
	uncoreRatio := byKey[[2]float64{2.3, 1.2}].Latency.Median / hi
	if uncoreRatio < 1.0 || uncoreRatio > 1.15 {
		t.Fatalf("uncore latency ratio %.3f, want small (≈1.05)", uncoreRatio)
	}
	if uncoreRatio >= ratio {
		t.Fatal("uncore impact not smaller than core impact")
	}
}

func TestFig1BandwidthUncoreEffect(t *testing.T) {
	pts := Fig1Frequencies(quietEnv(), []int64{64 << 20})
	byKey := map[[2]float64]FrequencyPoint{}
	for _, p := range pts {
		byKey[[2]float64{p.CoreGHz, p.UncoreGHz}] = p
	}
	// Core frequency does not affect asymptotic bandwidth (DMA)...
	bwSlowCore := byKey[[2]float64{1.0, 2.4}].Bandwidth()
	bwFastCore := byKey[[2]float64{2.3, 2.4}].Bandwidth()
	if rel := bwSlowCore / bwFastCore; rel < 0.97 {
		t.Fatalf("core frequency changed asymptotic bandwidth: %.3f", rel)
	}
	// ...but a low uncore slightly reduces it (10.5 vs 10.1 GB/s in the
	// paper: ≈4%).
	bwLowUncore := byKey[[2]float64{2.3, 1.2}].Bandwidth()
	if bwLowUncore >= bwFastCore {
		t.Fatal("low uncore did not reduce bandwidth")
	}
	if rel := bwLowUncore / bwFastCore; rel < 0.80 {
		t.Fatalf("uncore bandwidth penalty too strong: %.3f", rel)
	}
}

func TestFig2TracesAndMetrics(t *testing.T) {
	r := Fig2FrequencyTrace(quietEnv())
	if len(r.TraceA) == 0 || len(r.TraceB) == 0 || len(r.TraceC) == 0 {
		t.Fatal("missing traces")
	}
	// §3.2: latency slightly better with computation (1.52 vs 1.7 µs).
	if r.LatencyTogether.Median >= r.LatencyAlone.Median {
		t.Fatalf("latency with CPU-bound compute (%v) not below alone (%v)",
			r.LatencyTogether.Median, r.LatencyAlone.Median)
	}
	// Bandwidth essentially unchanged (9097 vs 9063 MB/s: ±1%).
	rel := r.BandwidthTogether / r.BandwidthAlone
	if rel < 0.97 || rel > 1.06 {
		t.Fatalf("CPU-bound compute changed bandwidth by %.3f", rel)
	}
	// Case C: 20 computing cores hold a steady frequency above idle.
	maxC := 0.0
	for _, s := range r.TraceC {
		if s.Core >= 0 && s.GHz > maxC {
			maxC = s.GHz
		}
	}
	if maxC < 2.4 {
		t.Fatalf("no core reached turbo in case C (max %.2f GHz)", maxC)
	}
}

func TestFig3AVXShape(t *testing.T) {
	rs := Fig3AVX(quietEnv(), []int{4, 20})
	if len(rs) != 2 {
		t.Fatal("want 2 configurations")
	}
	four, twenty := rs[0], rs[1]
	// Fig 3b/3c: compute cores at 3.0 GHz with 4 cores, 2.3 with 20;
	// comm core stable at 2.5 GHz in both.
	if four.ComputeCoreGHz != 3.0 || twenty.ComputeCoreGHz != 2.3 {
		t.Fatalf("compute core GHz: 4→%v 20→%v, want 3.0/2.3", four.ComputeCoreGHz, twenty.ComputeCoreGHz)
	}
	if four.CommCoreGHz != 2.5 || twenty.CommCoreGHz != 2.5 {
		t.Fatalf("comm core GHz: %v/%v, want 2.5", four.CommCoreGHz, twenty.CommCoreGHz)
	}
	// Weak scaling: computations slower with 20 cores (licence drop).
	if twenty.ComputeSecsWith.Median <= four.ComputeSecsWith.Median {
		t.Fatal("20-core AVX512 compute not slower than 4-core")
	}
	// Latency always slightly better when computations run at the same
	// time (1.33 vs 1.49 µs), for any core count.
	for _, r := range rs {
		if r.LatencyWith.Median >= r.LatencyAlone.Median {
			t.Fatalf("cores=%d: AVX latency with compute (%v) not below alone (%v)",
				r.Cores, r.LatencyWith.Median, r.LatencyAlone.Median)
		}
	}
}

func TestFig4ContentionShape(t *testing.T) {
	pts := Fig4Contention(quietEnv(), ContentionConfig{
		Data: Near, CommThread: Far,
		CoreCounts: []int{1, 5, 20, 35},
	})
	byCores := map[int]ContentionPoint{}
	for _, p := range pts {
		byCores[p.Cores] = p
	}
	// Latency: unaffected at low core counts, roughly doubled at 35
	// (Fig 4a: impact from ≥22 cores, up to 2×).
	lat1 := byCores[1].Latency
	lat35 := byCores[35].Latency
	if r := lat1.CommTogether.Median / lat1.CommAlone.Median; r > 1.2 {
		t.Fatalf("1-core latency already impacted: %.2f×", r)
	}
	r35 := lat35.CommTogether.Median / lat35.CommAlone.Median
	if r35 < 1.5 || r35 > 3.0 {
		t.Fatalf("35-core latency factor %.2f, want ≈2", r35)
	}
	// Bandwidth: reduced by roughly two thirds at 35 cores (Fig 4b).
	bw35 := byCores[35].Bandwidth
	drop := 1 - bw35.BandwidthTogether()/bw35.BandwidthAlone()
	if drop < 0.5 || drop > 0.85 {
		t.Fatalf("35-core bandwidth drop %.2f, want ≈0.65", drop)
	}
	// STREAM is not impacted by the latency ping-pong (4-byte messages)…
	if alone, with := lat35.ComputeAlone.Median, lat35.ComputeTogether.Median; with < 0.93*alone {
		t.Fatalf("STREAM hurt by latency ping-pong: %.3g → %.3g", alone, with)
	}
	// …but is impacted by the bandwidth ping-pong, worst at ≈5 cores
	// (≤25% loss, §4.3).
	bw5 := byCores[5].Bandwidth
	loss5 := 1 - bw5.ComputeTogether.Median/bw5.ComputeAlone.Median
	if loss5 < 0.05 || loss5 > 0.40 {
		t.Fatalf("5-core STREAM loss beside bandwidth ping-pong %.2f, want ≈0.25", loss5)
	}
}

func TestFig5PlacementAndTable1(t *testing.T) {
	series := Fig5Placement(quietEnv(), []int{5, 35})
	if len(series) != 4 {
		t.Fatalf("%d placements", len(series))
	}
	rows := Table1(series)
	if len(rows) != 4 {
		t.Fatalf("%d table rows", len(rows))
	}
	get := func(data, thread Placement) Table1Row {
		for _, r := range rows {
			if r.Data == data && r.CommThread == thread {
				return r
			}
		}
		t.Fatalf("missing row %v/%v", data, thread)
		return Table1Row{}
	}
	// Far comm thread: latency increases highly; near: only slightly.
	if !(get(Near, Far).LatencyIncrease > get(Near, Near).LatencyIncrease) {
		t.Fatal("far thread latency increase not above near thread")
	}
	// Far data: bandwidth drops more than near data (thread near).
	if !(get(Far, Near).BandwidthDropFrac > get(Near, Near).BandwidthDropFrac-0.05) {
		t.Fatalf("far data bandwidth drop %.2f not ≥ near data %.2f",
			get(Far, Near).BandwidthDropFrac, get(Near, Near).BandwidthDropFrac)
	}
}

func TestFig6MessageSizeShape(t *testing.T) {
	sizes := []int64{4, 4 << 10, 64 << 10, 1 << 20, 64 << 20}
	five := Fig6MessageSize(quietEnv(), 5, sizes)
	thirty5 := Fig6MessageSize(quietEnv(), 35, sizes)
	at := func(pts []SizePoint, size int64) InterferenceResult {
		for _, p := range pts {
			if p.Size == size {
				return p.Result
			}
		}
		t.Fatalf("missing size %d", size)
		return InterferenceResult{}
	}
	// With 5 cores: tiny messages unaffected, 64 MB affected.
	small5 := at(five, 4)
	if r := small5.CommTogether.Median / small5.CommAlone.Median; r > 1.25 {
		t.Fatalf("5 cores: 4B latency impacted %.2f×", r)
	}
	big5 := at(five, 64<<20)
	if r := big5.BandwidthTogether() / big5.BandwidthAlone(); r > 0.95 {
		t.Fatalf("5 cores: 64MB bandwidth unaffected (%.2f)", r)
	}
	// With 35 cores: even small messages suffer (paper: from 128 B).
	small35 := at(thirty5, 4)
	if r := small35.CommTogether.Median / small35.CommAlone.Median; r < 1.3 {
		t.Fatalf("35 cores: 4B latency not impacted (%.2f×)", r)
	}
	// STREAM impacted by ≥4KB messages more than by 4B ones (5 cores).
	loss := func(r InterferenceResult) float64 {
		if r.ComputeAlone.Median == 0 {
			return 0
		}
		return 1 - r.ComputeTogether.Median/r.ComputeAlone.Median
	}
	if !(loss(at(five, 64<<20)) > loss(at(five, 4))+0.02) {
		t.Fatalf("STREAM loss not growing with message size: 4B %.3f vs 64MB %.3f",
			loss(at(five, 4)), loss(at(five, 64<<20)))
	}
}

func TestFig7IntensityShape(t *testing.T) {
	pts := Fig7Intensity(quietEnv(), 35, []int{1, 24, 72, 288, 1200})
	first, last := pts[0], pts[len(pts)-1]
	// Memory-bound end: bandwidth drops hard (paper: −60%).
	dropLow := 1 - first.Bandwidth.BandwidthTogether()/first.Bandwidth.BandwidthAlone()
	if dropLow < 0.35 {
		t.Fatalf("low-AI bandwidth drop %.2f, want ≥0.35 (paper 0.6)", dropLow)
	}
	// CPU-bound end: communication recovers to nominal.
	dropHigh := 1 - last.Bandwidth.BandwidthTogether()/last.Bandwidth.BandwidthAlone()
	if dropHigh > 0.10 {
		t.Fatalf("high-AI bandwidth drop %.2f, want ≈0", dropHigh)
	}
	// Latency doubles at low AI, recovers at high AI.
	rLow := first.Latency.CommTogether.Median / first.Latency.CommAlone.Median
	rHigh := last.Latency.CommTogether.Median / last.Latency.CommAlone.Median
	if rLow < 1.4 {
		t.Fatalf("low-AI latency factor %.2f, want ≈2", rLow)
	}
	if rHigh > 1.15 {
		t.Fatalf("high-AI latency factor %.2f, want ≈1", rHigh)
	}
	// The transition must be monotone-ish in between.
	if !(pts[1].Bandwidth.BandwidthTogether() <= pts[3].Bandwidth.BandwidthTogether()) {
		t.Fatal("bandwidth not recovering with intensity")
	}
}

func TestRuntimeOverheadAcrossClusters(t *testing.T) {
	// §5.2: +38 µs on henri, +23 µs on billy, +45 µs on pyxis.
	for _, tc := range []struct {
		spec   *topology.NodeSpec
		lo, hi float64 // microseconds
	}{
		{topology.Henri(), 28, 48},
		{topology.Billy(), 15, 33},
		{topology.Pyxis(), 33, 58},
	} {
		tc.spec.NIC.NoiseFrac = 0
		env := Env{Spec: tc.spec, Seed: 1, Runs: 1}
		r := RuntimeOverhead(env)
		us := r.OverheadSeconds * 1e6
		if us < tc.lo || us > tc.hi {
			t.Errorf("%s: runtime overhead %.1fµs, want in [%v,%v]", tc.spec.Name, us, tc.lo, tc.hi)
		}
	}
}
