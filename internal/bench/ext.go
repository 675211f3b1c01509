package bench

// Extension experiments: working implementations of the paper's §8
// future-work proposals plus the reference-[7] overlap benchmark. These
// go beyond what the paper measures and are marked as extensions in the
// harness output and EXPERIMENTS.md.

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/taskrt"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/tuning"
)

// extCGApp is the memory-bound, communication-heavy application used by
// the extension experiments (a smaller cousin of the Fig 10 CG app).
func extCGApp(spec *topology.NodeSpec) func() *taskrt.App {
	return func() *taskrt.App {
		// Many small blocks keep the ready queue non-empty while the
		// boundary exchange is in flight, so communication-phase worker
		// throttling has work to defer.
		return &taskrt.App{
			Name: "ext-cg",
			Slice: func(i int) machine.ComputeSpec {
				return kernels.CGBlock(512, 1024, (i/2)%spec.NUMANodes())
			},
			TasksPerIter: 96,
			Iterations:   3,
			MsgSize:      512 << 10,
			MsgsPerIter:  6,
			HandleNUMA:   -1,
		}
	}
}

// ExtTuner sweeps worker counts for the CG-like application and renders
// the whole-program optimum (§8: "select automatically the optimal
// number of workers").
func ExtTuner(env Env) *trace.Table {
	// One sweep point per worker count; the optimum is re-derived from
	// the merged series exactly as tuning.WorkerSweep derives it (first
	// strict minimum of the whole-iteration time, in sweep order).
	counts := tuning.DefaultCounts(env.Spec)
	pts := make([]Point, 0, len(counts))
	for _, n := range counts {
		n := n
		pts = append(pts, Point{
			Key: fmt.Sprintf("ext/tuner/ext-cg/workers=%d", n),
			Fn: func(env Env) any {
				res := tuning.WorkerSweep(tuning.Options{
					Spec:         env.Spec,
					World:        env.World,
					Seed:         env.Seed,
					App:          extCGApp(env.Spec),
					WorkerCounts: []int{n},
				})
				return res.Series[0]
			},
		})
	}
	series := RunPointsAs[tuning.Point](env, pts)
	var best tuning.Point
	for _, pt := range series {
		if best.Workers == 0 || pt.IterSeconds < best.IterSeconds {
			best = pt
		}
	}
	t := trace.NewTable("EXT — §8 worker-count autotuning on a CG-like application",
		"workers", "iteration_ms", "send_bandwidth_MBps", "memory_stall_%", "best")
	for _, pt := range series {
		label := ""
		if pt.Workers == best.Workers {
			label = "<== optimum"
		}
		t.Add(pt.Workers, pt.IterSeconds*1e3, pt.SendBandwidth/1e6, pt.StallFraction*100, label)
	}
	return t
}

// ExtThrottle compares communication-phase worker throttling levels
// (§8: "change dynamically the number of workers if there are
// identifiable communication phases").
func ExtThrottle(env Env) *trace.Table {
	throttles := []int{0, 8, 16, 24}
	pts := make([]Point, 0, len(throttles))
	for _, throttle := range throttles {
		throttle := throttle
		pts = append(pts, Point{
			Key: fmt.Sprintf("ext/throttle/ext-cg/workers=30/throttle=%d", throttle),
			Fn: func(env Env) any {
				res := tuning.WorkerSweep(tuning.Options{
					Spec:         env.Spec,
					World:        env.World,
					Seed:         env.Seed,
					App:          extCGApp(env.Spec),
					WorkerCounts: []int{30},
					CommThrottle: throttle,
				})
				return res.Series[0]
			},
		})
	}
	t := trace.NewTable("EXT — §8 communication-phase worker throttling (30 workers, CG-like app)",
		"throttled_workers", "iteration_ms", "send_bandwidth_MBps", "memory_stall_%")
	for i, pt := range RunPointsAs[tuning.Point](env, pts) {
		t.Add(throttles[i], pt.IterSeconds*1e3, pt.SendBandwidth/1e6, pt.StallFraction*100)
	}
	return t
}

// ExtScheduler compares the central FIFO scheduler against the §8
// NUMA-local scheduler on a task-dominated, NUMA-spread workload.
func ExtScheduler(env Env) *trace.Table {
	spreadApp := func() *taskrt.App {
		return &taskrt.App{
			Name: "ext-spread",
			Slice: func(i int) machine.ComputeSpec {
				return kernels.CGBlock(1024, 1024, i%env.Spec.NUMANodes())
			},
			TasksPerIter: 90,
			Iterations:   2,
		}
	}
	policies := []taskrt.SchedulerPolicy{taskrt.EagerFIFO, taskrt.NUMALocal}
	pts := make([]Point, 0, len(policies))
	for _, pol := range policies {
		pol := pol
		pts = append(pts, Point{
			Key: fmt.Sprintf("ext/scheduler/ext-spread/workers=30/policy=%s", pol),
			Fn: func(env Env) any {
				res := tuning.WorkerSweep(tuning.Options{
					Spec:         env.Spec,
					World:        env.World,
					Seed:         env.Seed,
					App:          spreadApp,
					WorkerCounts: []int{30},
					Scheduler:    pol,
				})
				return res.Series[0]
			},
		})
	}
	t := trace.NewTable("EXT — §8 NUMA-local task scheduling vs central FIFO (30 workers)",
		"scheduler", "iteration_ms", "memory_stall_%")
	for i, pt := range RunPointsAs[tuning.Point](env, pts) {
		t.Add(policies[i].String(), pt.IterSeconds*1e3, pt.StallFraction*100)
	}
	return t
}

// ExtOverlap measures communication/computation overlap ratios (after
// reference [7]) for a sweep of message sizes, with the computation
// scaled to roughly match each transfer time.
func ExtOverlap(env Env) *trace.Table {
	sizes := []int64{64 << 10, 1 << 20, 16 << 20, 64 << 20}
	pts := make([]Point, 0, len(sizes))
	for _, size := range sizes {
		size := size
		pts = append(pts, Point{
			Key: fmt.Sprintf("ext/overlap/size=%d", size),
			Fn: func(env Env) any {
				c, w := newWorld(env, 2, env.Seed)
				// Computation sized to the nominal transfer time at wire speed.
				transferSecs := float64(size) / (env.Spec.NIC.WireGBs * 1e9)
				flops := transferSecs * 2.5e9 * env.Spec.FlopsPerCycle[topology.Scalar]
				ov := &mpi.Overlap{
					Size:        size,
					Compute:     machine.ComputeSpec{Flops: flops, Class: topology.Scalar},
					ComputeCore: 1,
					Iters:       4,
				}
				var res mpi.OverlapResult
				c.K.Spawn("overlap", func(p *sim.Proc) { res = ov.Run(p, w.Rank(0), 1) })
				c.K.Spawn("peer", func(p *sim.Proc) { ov.RunPeer(p, w.Rank(1), 0) })
				c.K.Run()
				return res
			},
		})
	}
	t := trace.NewTable("EXT — communication/computation overlap (after Denis & Trahay [7])",
		"size_B", "comm_alone_us", "compute_alone_us", "together_us", "overlap_ratio")
	for i, res := range RunPointsAs[mpi.OverlapResult](env, pts) {
		t.Add(sizes[i], res.CommAlone.Micros(), res.ComputeAlone.Micros(),
			res.Together.Micros(), res.Ratio)
	}
	return t
}
