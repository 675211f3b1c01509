package bench

import (
	"fmt"

	"repro/internal/freq"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// FrequencyPoint is one cell of Figure 1's grid.
type FrequencyPoint struct {
	CoreGHz, UncoreGHz float64
	Size               int64
	Latency            stats.Summary // seconds
}

// Bandwidth returns the NetPIPE bandwidth of the point in bytes/s.
func (p FrequencyPoint) Bandwidth() float64 {
	if p.Latency.Median == 0 {
		return 0
	}
	return float64(p.Size) / p.Latency.Median
}

// Fig1Frequencies measures network latency and bandwidth at the
// extremes of the permitted core and uncore frequency ranges (§3.1,
// Figs 1a/1b): constant frequencies via the userspace governor and a
// pinned uncore, ping-pong only, no computation, communication thread
// near the NIC.
func Fig1Frequencies(env Env, sizes []int64) []FrequencyPoint {
	if len(sizes) == 0 {
		sizes = []int64{4, 64 << 20}
	}
	coreFreqs := []float64{env.Spec.Freq.CoreMin, env.Spec.Freq.CoreBase}
	uncoreFreqs := []float64{env.Spec.Freq.UncoreMin, env.Spec.Freq.UncoreMax}
	var pts []Point
	for _, cf := range coreFreqs {
		for _, uf := range uncoreFreqs {
			for _, size := range sizes {
				cf, uf, size := cf, uf, size
				pts = append(pts, Point{
					Key: fmt.Sprintf("fig1/cf=%g/uf=%g/size=%d", cf, uf, size),
					Fn: func(env Env) any {
						spec := env.Spec
						lats := make([]float64, 0, env.runs()*pingIters(size))
						for run := 0; run < env.runs(); run++ {
							c, w := newWorld(env, 2, env.Seed+int64(run))
							for i := 0; i < 2; i++ {
								r := w.Rank(i)
								r.SetCommCore(spec.LastCoreOfNUMA(spec.NIC.NUMA))
								r.Node.Freq.SetUserspace(cf)
								r.Node.Freq.SetUncoreFixed(uf)
							}
							pp := applyComm(w, CommConfig{CommCore: -1, BufNUMA: -1, Size: size,
								Iters: pingIters(size), Warmup: 2})
							pp.InitBuf = w.Rank(0).Node.Alloc(maxInt64(size, 1), spec.NIC.NUMA)
							pp.RespBuf = w.Rank(1).Node.Alloc(maxInt64(size, 1), spec.NIC.NUMA)
							var ls []sim.Duration
							c.K.Spawn("init", func(p *sim.Proc) { ls = pp.Initiate(p, w.Rank(0), 1) })
							c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
							c.K.Run()
							for _, l := range ls {
								lats = append(lats, l.Seconds())
							}
						}
						return FrequencyPoint{
							CoreGHz: cf, UncoreGHz: uf, Size: size,
							Latency: stats.SummarizeInPlace(lats),
						}
					},
				})
			}
		}
	}
	return RunPointsAs[FrequencyPoint](env, pts)
}

// pingIters scales the iteration count down for huge messages.
func pingIters(size int64) int {
	switch {
	case size >= 16<<20:
		return 5
	case size >= 1<<20:
		return 10
	default:
		return 25
	}
}

// Fig1Table renders Figure 1 as a table.
func Fig1Table(points []FrequencyPoint) *trace.Table {
	t := trace.NewTable("Fig 1 — impact of constant frequencies on network performance",
		"core_GHz", "uncore_GHz", "size_B", "latency_us", "bandwidth_MBps")
	for _, p := range points {
		t.Add(p.CoreGHz, p.UncoreGHz, p.Size, p.Latency.Median*1e6, p.Bandwidth()/1e6)
	}
	return t
}

// Fig2Result holds the three frequency traces of Figure 2 plus the
// communication metrics with and without computation (§3.2).
type Fig2Result struct {
	// Traces: (A) communication only, (B) idle, (C) communication with
	// 20 CPU-bound computing cores.
	TraceA, TraceB, TraceC []freq.Sample
	// Latency/Bandwidth medians, alone (A) vs with computation (C).
	LatencyAlone, LatencyTogether     stats.Summary
	BandwidthAlone, BandwidthTogether float64
	// ComputeSecs is the compute iteration time in case C (constant
	// regardless of core count, §3.2 footnote 4).
	ComputeSecs stats.Summary
}

// Fig2FrequencyTrace reproduces Figure 2: per-core frequency traces
// under the performance governor with turbo, for communication only,
// idle, and communication beside 20 prime-counting cores. Each trace
// case and each of the two bandwidth probes is one point; every point
// fills its own fields of a Fig2Result, merged here.
func Fig2FrequencyTrace(env Env) Fig2Result {
	parts := RunPointsAs[Fig2Result](env, []Point{
		{Key: "fig2/trace=A", Fn: func(env Env) any { return fig2CommOnly(env) }},
		{Key: "fig2/trace=B", Fn: func(env Env) any { return fig2Idle(env) }},
		{Key: "fig2/trace=C", Fn: func(env Env) any { return fig2CommCompute(env) }},
		{Key: "fig2/bandwidth/cores=0", Fn: func(env Env) any {
			return Fig2Result{BandwidthAlone: measureBandwidthOnce(env, 0)}
		}},
		{Key: "fig2/bandwidth/cores=20", Fn: func(env Env) any {
			return Fig2Result{BandwidthTogether: measureBandwidthOnce(env, 20)}
		}},
	})
	a, b, c := parts[0], parts[1], parts[2]
	return Fig2Result{
		TraceA: a.TraceA, TraceB: b.TraceB, TraceC: c.TraceC,
		LatencyAlone: a.LatencyAlone, LatencyTogether: c.LatencyTogether,
		BandwidthAlone: parts[3].BandwidthAlone, BandwidthTogether: parts[4].BandwidthTogether,
		ComputeSecs: c.ComputeSecs,
	}
}

// fig2CommOnly is case (A): the latency benchmark alone, tracing the
// initiator node's frequencies.
func fig2CommOnly(env Env) Fig2Result {
	c, w := newWorld(env, 2, env.Seed)
	pp := applyComm(w, CommConfig{CommCore: -1, BufNUMA: -1, Size: 4, Iters: 30, Warmup: 5})
	w.Rank(0).Node.Freq.StartTrace()
	var lats []sim.Duration
	c.K.Spawn("init", func(p *sim.Proc) { lats = pp.Initiate(p, w.Rank(0), 1) })
	c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
	c.K.Run()
	return Fig2Result{TraceA: w.Rank(0).Node.Freq.StopTrace(), LatencyAlone: summarizeDur(lats)}
}

// fig2Idle is case (B): all cores asleep.
func fig2Idle(env Env) Fig2Result {
	c, w := newWorld(env, 2, env.Seed)
	n := w.Rank(0).Node
	n.Freq.StartTrace()
	c.K.Spawn("sleep", func(p *sim.Proc) { p.Sleep(sim.Duration(10 * sim.Millisecond)) })
	c.K.Run()
	return Fig2Result{TraceB: n.Freq.StopTrace()}
}

// fig2CommCompute is case (C): the latency benchmark beside 20
// prime-counting cores on each node.
func fig2CommCompute(env Env) Fig2Result {
	c, w := newWorld(env, 2, env.Seed)
	pp := applyComm(w, CommConfig{CommCore: -1, BufNUMA: -1, Size: 4, Iters: 30, Warmup: 5})
	n := w.Rank(0).Node
	n.Freq.StartTrace()
	commDone := false
	var secs []float64
	for _, node := range c.Nodes {
		node := node
		for _, core := range computeCores(env.Spec, 20, w.Rank(0).CommCore) {
			core := core
			c.K.Spawn("prime", func(p *sim.Proc) {
				r := kernels.LoopWhile(p, node, core, kernels.PrimeCountDefault(),
					func() bool { return !commDone })
				if node.ID == 0 && r.Iters > 0 {
					secs = append(secs, r.PerIter.Seconds())
				}
			})
		}
	}
	var lats []sim.Duration
	c.K.Spawn("init", func(p *sim.Proc) {
		p.Sleep(sim.Duration(sim.Millisecond))
		lats = pp.Initiate(p, w.Rank(0), 1)
		commDone = true
	})
	c.K.Spawn("resp", func(p *sim.Proc) { pp.Respond(p, w.Rank(1), 0) })
	c.K.Run()
	return Fig2Result{
		TraceC:          n.Freq.StopTrace(),
		LatencyTogether: summarizeDur(lats),
		ComputeSecs:     stats.Summarize(secs),
	}
}

// measureBandwidthOnce runs one 64MB ping-pong (optionally beside a
// CPU-bound kernel on `cores` cores) and returns the median bandwidth.
// The probe always runs once, on healthy worlds, whatever the
// campaign's run count or fault schedule.
func measureBandwidthOnce(env Env, cores int) float64 {
	comm := BandwidthConfig()
	comp := ComputeConfig{}
	if cores > 0 {
		comp = ComputeConfig{Slice: kernels.PrimeCountDefault(), Cores: cores}
	}
	env.Runs, env.Faults = 1, nil
	r := Interference(env, comm, comp)
	if cores > 0 {
		return r.BandwidthTogether()
	}
	return r.BandwidthAlone()
}

// Fig3Result holds one AVX-512 configuration of Figure 3.
type Fig3Result struct {
	Cores                             int
	ComputeSecsAlone, ComputeSecsWith stats.Summary
	LatencyAlone, LatencyWith         stats.Summary
	// CommCoreGHz and ComputeCoreGHz are the frequencies observed during
	// the side-by-side phase.
	CommCoreGHz, ComputeCoreGHz float64
}

// Fig3AVX reproduces Figure 3: AVX-512 computations with turbo enabled
// beside a latency ping-pong, for the given computing-core counts
// (the paper shows 4 and 20).
func Fig3AVX(env Env, coreCounts []int) []Fig3Result {
	if len(coreCounts) == 0 {
		coreCounts = []int{4, 20}
	}
	lat := LatencyConfig()
	var pts []Point
	for _, nc := range coreCounts {
		nc := nc
		pts = append(pts, Point{
			Key: fmt.Sprintf("fig3/avx512-default/cores=%d", nc),
			Fn: func(env Env) any {
				r := cellResults(env, ComputeConfig{
					Slice: kernels.AVX512Default(), Cores: nc, MinIters: 2,
				}, lat)[0]
				fr := Fig3Result{
					Cores:            nc,
					ComputeSecsAlone: r.ComputeSecsAlone,
					ComputeSecsWith:  r.ComputeSecsTogether,
					LatencyWith:      r.CommTogether,
				}
				// Probe the frequencies in the side-by-side state.
				c, w := newWorld(env, 2, env.Seed)
				n := w.Rank(0).Node
				for _, core := range computeCores(env.Spec, nc, w.Rank(0).CommCore) {
					n.Freq.SetActive(core, topology.AVX512)
				}
				n.Freq.SetActive(w.Rank(0).CommCore, topology.Scalar)
				fr.ComputeCoreGHz = n.Freq.CoreGHz(computeCores(env.Spec, nc, w.Rank(0).CommCore)[0])
				fr.CommCoreGHz = n.Freq.CoreGHz(w.Rank(0).CommCore)
				_ = c
				return fr
			},
		})
	}
	cells, alone := runWithSolos[Fig3Result](env, pts, []CommConfig{lat})
	for i := range cells {
		cells[i].LatencyAlone = alone[lat]
	}
	return cells
}

// Fig3Table renders Figure 3 as a table.
func Fig3Table(rs []Fig3Result) *trace.Table {
	t := trace.NewTable("Fig 3 — impact of AVX-512 computations on network latency (turbo on)",
		"cores", "compute_ms_alone", "compute_ms_with_comm",
		"latency_us_alone", "latency_us_with_compute",
		"compute_core_GHz", "comm_core_GHz")
	for _, r := range rs {
		t.Add(r.Cores, r.ComputeSecsAlone.Median*1e3, r.ComputeSecsWith.Median*1e3,
			r.LatencyAlone.Median*1e6, r.LatencyWith.Median*1e6,
			r.ComputeCoreGHz, r.CommCoreGHz)
	}
	return t
}

func summarizeDur(ds []sim.Duration) stats.Summary {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return stats.Summarize(xs)
}
