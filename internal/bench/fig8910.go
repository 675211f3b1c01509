package bench

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/taskrt"
	"repro/internal/topology"
	"repro/internal/trace"
)

// starpuPair builds a two-node cluster with one runtime per node.
func starpuPair(env Env, seed int64, commCore int, workers []int, backoff taskrt.Backoff) (*machine.Cluster, *mpi.World, [2]*taskrt.Runtime) {
	c, w := newWorld(env, 2, seed)
	var rts [2]*taskrt.Runtime
	for i := 0; i < 2; i++ {
		if commCore >= 0 {
			w.Rank(i).SetCommCore(commCore)
		}
		rts[i] = taskrt.New(taskrt.Config{
			Node:        c.Nodes[i],
			Rank:        w.Rank(i),
			MainCore:    0,
			CommCore:    w.Rank(i).CommCore,
			WorkerCores: workers,
			Backoff:     backoff,
		})
		rts[i].Start()
	}
	return c, w, rts
}

// starpuLatency runs the runtime-level latency ping-pong (4 B) once per
// run (run r on seed Seed+r, one fresh pair of runtimes per run) and
// summarises the half-round-trip latencies in seconds across
// iterations and runs.
func starpuLatency(env Env, commCore, dataNUMA int,
	workers []int, backoff taskrt.Backoff, paused bool) stats.Summary {
	numa := env.Spec.NIC.NUMA
	if dataNUMA >= 0 {
		numa = dataNUMA
	}
	lat := make([]float64, 0, env.runs()*15)
	for run := 0; run < env.runs(); run++ {
		c, _, rts := starpuPair(env, env.Seed+int64(run), commCore, workers, backoff)
		if paused {
			rts[0].PauseWorkers()
			rts[1].PauseWorkers()
		}
		var pps [2]*taskrt.PingPong
		for i := 0; i < 2; i++ {
			pps[i] = &taskrt.PingPong{
				Size: 4, Iters: 15, Warmup: 3,
				Buf: c.Nodes[i].Alloc(4, numa),
			}
		}
		var lats []sim.Duration
		c.K.Spawn("init", func(p *sim.Proc) {
			lats = pps[0].Initiate(p, rts[0], 1)
			rts[0].Shutdown()
			rts[1].Shutdown()
		})
		c.K.Spawn("resp", func(p *sim.Proc) { pps[1].Respond(p, rts[1], 0) })
		c.K.RunUntil(sim.Time(60 * sim.Second))
		for _, l := range lats {
			lat = append(lat, l.Seconds())
		}
	}
	return stats.SummarizeInPlace(lat)
}

// RuntimeOverheadResult compares raw-MPI and runtime latency (§5.2).
type RuntimeOverheadResult struct {
	Cluster         string
	RawLatency      stats.Summary
	RuntimeLatency  stats.Summary
	OverheadSeconds float64
}

// RuntimeOverhead measures the latency overhead added by the task-based
// runtime's software stack (§5.2: +38 µs on henri, +23 µs on billy,
// +45 µs on pyxis). Workers are paused to isolate the path cost. The
// comparison is one point.
func RuntimeOverhead(env Env) RuntimeOverheadResult {
	return RunPointsAs[RuntimeOverheadResult](env, []Point{{
		Key: "sec5.2/runtime-overhead",
		Fn:  func(env Env) any { return runtimeOverhead(env) },
	}})[0]
}

func runtimeOverhead(env Env) RuntimeOverheadResult {
	raw := Interference(env, LatencyConfig(), ComputeConfig{})
	rt := starpuLatency(env, -1, -1, []int{1, 2}, taskrt.DefaultBackoff, true)
	return RuntimeOverheadResult{
		Cluster:         env.Spec.Name,
		RawLatency:      raw.CommAlone,
		RuntimeLatency:  rt,
		OverheadSeconds: rt.Median - raw.CommAlone.Median,
	}
}

// Fig8Point is one placement scheme of Figure 8.
type Fig8Point struct {
	DataClose, ThreadClose bool
	Latency                stats.Summary
}

// Fig8Runtime reproduces Figure 8: runtime-level ping-pong latency for
// the four data-locality × communication-thread placements ("close"
// means on the NIC's NUMA node). Workers are paused; the effect under
// study is the software path plus NUMA distance of the handle data.
func Fig8Runtime(env Env) []Fig8Point {
	closeFar := func(b bool) string {
		if b {
			return "close"
		}
		return "far"
	}
	var pts []Point
	for _, dataClose := range []bool{true, false} {
		for _, threadClose := range []bool{true, false} {
			dataClose, threadClose := dataClose, threadClose
			pts = append(pts, Point{
				Key: fmt.Sprintf("fig8/data=%s/thread=%s", closeFar(dataClose), closeFar(threadClose)),
				Fn: func(env Env) any {
					spec := env.Spec
					dataNUMA := spec.NIC.NUMA
					if !dataClose {
						dataNUMA = spec.NUMANodes() - 1
					}
					threadNUMA := spec.NIC.NUMA
					if !threadClose {
						threadNUMA = spec.NUMANodes() - 1
					}
					return Fig8Point{
						DataClose: dataClose, ThreadClose: threadClose,
						Latency: starpuLatency(env, spec.LastCoreOfNUMA(threadNUMA), dataNUMA,
							[]int{1, 2}, taskrt.DefaultBackoff, true),
					}
				},
			})
		}
	}
	return RunPointsAs[Fig8Point](env, pts)
}

// Fig8Table renders Figure 8.
func Fig8Table(points []Fig8Point) *trace.Table {
	closeFar := func(b bool) string {
		if b {
			return "close"
		}
		return "far"
	}
	t := trace.NewTable("Fig 8 — impact of data locality and thread placement on StarPU latency",
		"data", "comm_thread", "latency_us")
	for _, pt := range points {
		t.Add(closeFar(pt.DataClose), closeFar(pt.ThreadClose), pt.Latency.Median*1e6)
	}
	return t
}

// Fig9Point is one polling configuration of Figure 9.
type Fig9Point struct {
	Label   string
	Backoff taskrt.Backoff
	Paused  bool
	Latency stats.Summary
}

// Fig9Polling reproduces Figure 9: ping-pong latency while the
// runtime's workers idle-poll the task queue with different maximum
// backoffs (2 = very frequent polling, 32 = default, 10000 = rare), or
// paused (no polling at all). All non-reserved cores run workers.
func Fig9Polling(env Env) []Fig9Point {
	spec := env.Spec
	var workers []int
	commCore := spec.LastCoreOfNUMA(spec.NUMANodes() - 1)
	for c := 1; c < spec.Cores(); c++ {
		if c != commCore {
			workers = append(workers, c)
		}
	}
	configs := []Fig9Point{
		{Label: "backoff-2", Backoff: taskrt.Backoff{Min: 1, Max: 2}},
		{Label: "default-32", Backoff: taskrt.Backoff{Min: 1, Max: 32}},
		{Label: "backoff-10000", Backoff: taskrt.Backoff{Min: 1, Max: 10000}},
		{Label: "paused", Backoff: taskrt.DefaultBackoff, Paused: true},
	}
	pts := make([]Point, 0, len(configs))
	for _, cfg := range configs {
		cfg := cfg
		pts = append(pts, Point{
			Key: fmt.Sprintf("fig9/%s/workers=%d", cfg.Label, len(workers)),
			Fn: func(env Env) any {
				cfg.Latency = starpuLatency(env, commCore, -1, workers, cfg.Backoff, cfg.Paused)
				return cfg
			},
		})
	}
	return RunPointsAs[Fig9Point](env, pts)
}

// Fig9Table renders Figure 9.
func Fig9Table(points []Fig9Point) *trace.Table {
	t := trace.NewTable("Fig 9 — impact of polling workers on network latency",
		"workers", "latency_us")
	for _, pt := range points {
		t.Add(pt.Label, pt.Latency.Median*1e6)
	}
	return t
}

// Fig10Point is one worker count of Figure 10 for one kernel.
type Fig10Point struct {
	Kernel        string
	Workers       int
	SendBandwidth float64 // bytes/s as perceived by the sender
	StallFraction float64 // fraction of cycles stalled on memory
}

// Fig10Kernels reproduces Figure 10: dense CG and GEMM built on the
// task runtime, distributed on two nodes, varying the number of
// workers. For each execution it reports the sending network bandwidth
// (library profiling) and the fraction of CPU time stalled on memory
// (PMU counters). The execution parameters (matrix sizes, iteration
// counts) are identical across worker counts, as in the paper.
func Fig10Kernels(env Env, workerCounts []int) []Fig10Point {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 34}
	}
	var pts []Point
	for _, kname := range []string{"cg", "gemm"} {
		for _, nw := range workerCounts {
			if nw > env.Spec.Cores()-2 {
				continue
			}
			kname, nw := kname, nw
			pts = append(pts, Point{
				Key: fmt.Sprintf("fig10/kernel=%s/workers=%d", kname, nw),
				Fn:  func(env Env) any { return runFig10(env, kname, nw) },
			})
		}
	}
	return RunPointsAs[Fig10Point](env, pts)
}

// Fig10App builds the iterative two-node application for one §6 kernel:
// a fixed problem shape (tasks and communication volume per iteration)
// regardless of the worker count. The exchanged data handles are
// allocated by first touch where workers run (§5.3) — far from the NIC,
// so their DMA path crosses the UPI the compute streams load, a key
// ingredient of the paper's up-to-90% CG send-bandwidth loss.
func Fig10App(spec *topology.NodeSpec, kernel string) *taskrt.App {
	numaOfTask := func(i int) int { return (i / 2) % spec.NUMANodes() }
	app := &taskrt.App{
		Name:         kernel,
		TasksPerIter: 36,
		Iterations:   4,
		HandleNUMA:   -1,
	}
	if kernel == "gemm" {
		// GEMM tiles are cache-blocked and placed by the locality-aware
		// scheduler: their traffic stays on the executing worker's NUMA
		// node; tile-row exchanges are large.
		app.Slice = func(i int) machine.ComputeSpec { return kernels.GEMMTile(512, -1) }
		app.MsgSize = 2 << 20
		app.MsgsPerIter = 4
		return app
	}
	// CG streams the whole (interleaved-allocated) matrix every
	// iteration — heavy cross-NUMA traffic — and exchanges the iterate
	// vector both ways.
	app.Slice = func(i int) machine.ComputeSpec { return kernels.CGBlock(1536, 1536, numaOfTask(i)) }
	app.MsgSize = 512 << 10
	app.MsgsPerIter = 6
	return app
}

// runFig10 executes one kernel at one worker count.
func runFig10(env Env, kernel string, nworkers int) Fig10Point {
	spec := env.Spec
	commCore := spec.LastCoreOfNUMA(spec.NUMANodes() - 1)
	var workers []int
	for c := 1; c < spec.Cores() && len(workers) < nworkers; c++ {
		if c != commCore {
			workers = append(workers, c)
		}
	}
	_, _, rts := starpuPair(env, env.Seed, commCore, workers, taskrt.DefaultBackoff)
	stats := Fig10App(spec, kernel).Run(rts)
	return Fig10Point{
		Kernel:        kernel,
		Workers:       nworkers,
		SendBandwidth: stats.SendBandwidth,
		StallFraction: stats.StallFraction,
	}
}

// Fig10Table renders Figure 10, normalising send bandwidth per kernel
// to its 1-worker value as the paper normalises to nominal.
func Fig10Table(points []Fig10Point) *trace.Table {
	base := map[string]float64{}
	for _, pt := range points {
		if _, ok := base[pt.Kernel]; !ok || pt.SendBandwidth > base[pt.Kernel] {
			base[pt.Kernel] = pt.SendBandwidth
		}
	}
	t := trace.NewTable("Fig 10 — network sends and memory stalls of CG and GEMM executions",
		"kernel", "workers", "send_bandwidth_MBps", "normalized_send_bw", "memory_stall_%")
	for _, pt := range points {
		norm := 0.0
		if base[pt.Kernel] > 0 {
			norm = pt.SendBandwidth / base[pt.Kernel]
		}
		t.Add(pt.Kernel, pt.Workers, pt.SendBandwidth/1e6, norm, pt.StallFraction*100)
	}
	return t
}
