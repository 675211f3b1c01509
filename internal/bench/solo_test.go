package bench_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/runner"
	"repro/internal/trace"
)

// soloSweeps is what the shared-baseline drivers assemble for a reduced
// set of the paper's sweeps.
type soloSweeps struct {
	Contention [][]bench.ContentionPoint // Fig4Contention, one per placement
	Placement  map[string][]bench.ContentionPoint
	Fig3       []bench.Fig3Result
	Fig6       []bench.SizePoint
	Fig7       []bench.IntensityPoint
}

var (
	soloCounts     = []int{1, 5, 35}
	soloPlacements = [][2]bench.Placement{{bench.Near, bench.Far}, {bench.Far, bench.Near}}
	soloSizes      = []int64{4, 4096, 1 << 20}
	soloCursors    = []int{1, 48, 1200}
)

func measureSoloSweeps(env bench.Env) soloSweeps {
	var s soloSweeps
	for _, pl := range soloPlacements {
		s.Contention = append(s.Contention, bench.Fig4Contention(env, bench.ContentionConfig{
			Data: pl[0], CommThread: pl[1], CoreCounts: soloCounts,
		}))
	}
	s.Placement = bench.Fig5Placement(env, soloCounts)
	s.Fig3 = bench.Fig3AVX(env, []int{4})
	s.Fig6 = bench.Fig6MessageSize(env, 5, soloSizes)
	s.Fig7 = bench.Fig7Intensity(env, 35, soloCursors)
	return s
}

// inlineSoloSweeps computes the same sweeps cell by cell with the inline
// three-step protocol, every configuration rebuilt from the paper's
// description rather than from the drivers' helpers.
func inlineSoloSweeps(env bench.Env) soloSweeps {
	spec := env.Spec
	numaOf := func(pl bench.Placement) int {
		if pl == bench.Near {
			return spec.NIC.NUMA
		}
		return spec.NUMANodes() - 1
	}
	contention := func(data, thread bench.Placement) []bench.ContentionPoint {
		lat, bw := bench.LatencyConfig(), bench.BandwidthConfig()
		lat.CommCore, lat.BufNUMA = spec.LastCoreOfNUMA(numaOf(thread)), numaOf(data)
		bw.CommCore, bw.BufNUMA = lat.CommCore, lat.BufNUMA
		var pts []bench.ContentionPoint
		for _, nc := range soloCounts {
			comp := bench.ComputeConfig{Slice: kernels.StreamTriad(kernels.DefaultStreamElems, numaOf(data)), Cores: nc}
			pts = append(pts, bench.ContentionPoint{
				Cores:     nc,
				Latency:   bench.Interference(env, lat, comp),
				Bandwidth: bench.Interference(env, bw, comp),
			})
		}
		return pts
	}
	var s soloSweeps
	for _, pl := range soloPlacements {
		s.Contention = append(s.Contention, contention(pl[0], pl[1]))
	}
	s.Placement = map[string][]bench.ContentionPoint{}
	for _, data := range []bench.Placement{bench.Near, bench.Far} {
		for _, thread := range []bench.Placement{bench.Near, bench.Far} {
			s.Placement[fmt.Sprintf("%s/%s", data, thread)] = contention(data, thread)
		}
	}
	// Fig3AVX also probes frequencies: those fields are not the
	// protocol's and are taken from the measured sweep by the caller.
	r := bench.Interference(env, bench.LatencyConfig(), bench.ComputeConfig{
		Slice: kernels.AVX512Default(), Cores: 4, MinIters: 2,
	})
	s.Fig3 = []bench.Fig3Result{{
		Cores:            4,
		ComputeSecsAlone: r.ComputeSecsAlone, ComputeSecsWith: r.ComputeSecsTogether,
		LatencyAlone: r.CommAlone, LatencyWith: r.CommTogether,
	}}
	commCore := spec.LastCoreOfNUMA(spec.NUMANodes() - 1)
	for _, size := range soloSizes {
		comm := bench.CommConfig{CommCore: commCore, BufNUMA: spec.NIC.NUMA, Size: size, Iters: bench.PingIters(size), Warmup: 2}
		comp := bench.ComputeConfig{Slice: kernels.StreamTriad(kernels.DefaultStreamElems, spec.NIC.NUMA), Cores: 5}
		s.Fig6 = append(s.Fig6, bench.SizePoint{Size: size, Result: bench.Interference(env, comm, comp)})
	}
	lat, bw := bench.LatencyConfig(), bench.BandwidthConfig()
	lat.CommCore, lat.BufNUMA = commCore, spec.NIC.NUMA
	bw.CommCore, bw.BufNUMA = commCore, spec.NIC.NUMA
	for _, cur := range soloCursors {
		slice := kernels.TriadX(1<<20, cur, spec.NIC.NUMA)
		comp := bench.ComputeConfig{Slice: slice, Cores: 35}
		s.Fig7 = append(s.Fig7, bench.IntensityPoint{
			Cursor: cur, Intensity: kernels.Intensity(slice),
			Latency: bench.Interference(env, lat, comp), Bandwidth: bench.Interference(env, bw, comp),
		})
	}
	return s
}

// TestSoloBaselinesMatchInline: sweeps that measure each comm-alone
// baseline once, as a shared point, and comp-alone once per cell
// assemble exactly what the inline protocol measures for every cell —
// with points run inline and under a campaign at -j 1 and -j 4. %v
// prints each float's shortest exact form, so equal strings mean equal
// bits.
func TestSoloBaselinesMatchInline(t *testing.T) {
	env, err := core.Env("henri", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := inlineSoloSweeps(env)
	check := func(name string, got soloSweeps) {
		t.Helper()
		if len(got.Fig3) != len(want.Fig3) {
			t.Fatalf("%s: %d fig3 cells, want %d", name, len(got.Fig3), len(want.Fig3))
		}
		for i := range want.Fig3 {
			want.Fig3[i].CommCoreGHz, want.Fig3[i].ComputeCoreGHz = got.Fig3[i].CommCoreGHz, got.Fig3[i].ComputeCoreGHz
		}
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
			t.Errorf("%s differs from the inline protocol:\n%s", name, trace.UnifiedDiff("inline", name, w, g))
		}
	}
	check("Sched=nil", measureSoloSweeps(env))
	for _, workers := range []int{1, 4} {
		var got soloSweeps
		exp := core.Experiment{ID: "solo-sweeps", Sweep: "points: reduced fig3-fig7 sweeps", Run: func(env bench.Env) []*trace.Table {
			got = measureSoloSweeps(env)
			return nil
		}}
		res := runner.Collect(runner.Run(env, []core.Experiment{exp}, runner.Options{Workers: workers}))
		if len(res) != 1 || res[0].Err != nil {
			t.Fatalf("-j %d campaign: %+v", workers, res)
		}
		check(fmt.Sprintf("-j %d", workers), got)
	}
}
