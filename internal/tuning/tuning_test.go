package tuning

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/net"
	"repro/internal/taskrt"
	"repro/internal/topology"
)

func quietHenri() *topology.NodeSpec {
	spec := topology.Henri()
	spec.NIC.NoiseFrac = 0
	return spec
}

// quietWorld builds the healthy two-node world of one run on
// quietHenri, as the bench drivers' World would outside a campaign.
func quietWorld(seed int64) (*machine.Cluster, *mpi.World) {
	c := machine.NewCluster(quietHenri(), 2, seed)
	return c, mpi.NewWorld(c, net.New(c))
}

// cgApp is a communication-heavy, memory-bound iterative app: past the
// controller saturation point, extra workers only add contention.
func cgApp() *taskrt.App {
	return &taskrt.App{
		Name:         "tune-cg",
		Slice:        func(i int) machine.ComputeSpec { return kernels.CGBlock(512, 1024, (i/2)%4) },
		TasksPerIter: 96,
		Iterations:   3,
		MsgSize:      512 << 10,
		MsgsPerIter:  6,
		HandleNUMA:   -1,
	}
}

// cpuApp is compute-bound: more workers always help.
func cpuApp() *taskrt.App {
	return &taskrt.App{
		Name:         "tune-cpu",
		Slice:        func(i int) machine.ComputeSpec { return kernels.PrimeCount(2e8) },
		TasksPerIter: 64,
		Iterations:   2,
		MsgSize:      64 << 10,
		MsgsPerIter:  2,
		HandleNUMA:   -1,
	}
}

func TestSweepSeriesComplete(t *testing.T) {
	res := WorkerSweep(Options{
		Spec: quietHenri(), Seed: 1, World: quietWorld, App: cgApp,
		WorkerCounts: []int{2, 8, 34},
	})
	if len(res.Series) != 3 {
		t.Fatalf("%d points", len(res.Series))
	}
	for _, pt := range res.Series {
		if pt.IterSeconds <= 0 {
			t.Fatalf("point %+v has no timing", pt)
		}
	}
	if res.Best.Workers == 0 {
		t.Fatal("no best point")
	}
}

func TestAutotuneCPUBoundPrefersAllWorkers(t *testing.T) {
	best := Autotune(Options{
		Spec: quietHenri(), Seed: 1, World: quietWorld, App: cpuApp,
		WorkerCounts: []int{2, 8, 34},
	})
	if best != 34 {
		t.Fatalf("CPU-bound autotune chose %d workers, want 34 (no contention penalty)", best)
	}
}

func TestAutotuneMemoryBoundAvoidsFullMachine(t *testing.T) {
	// For a memory-bound, communication-heavy app, the whole-program
	// optimum is below the full machine: once the controllers saturate
	// (≈ 4 cores per NUMA node on henri), extra workers add nothing to
	// compute but keep degrading communication (§8's motivation).
	res := WorkerSweep(Options{
		Spec: quietHenri(), Seed: 1, World: quietWorld, App: cgApp,
		WorkerCounts: []int{2, 8, 16, 24, 34},
	})
	if res.Best.Workers == 34 {
		t.Fatalf("memory-bound autotune chose the full machine:\n%+v", res.Series)
	}
	if res.Best.Workers < 8 {
		t.Fatalf("memory-bound autotune too conservative (%d workers):\n%+v",
			res.Best.Workers, res.Series)
	}
}

func TestSweepValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range worker count accepted")
		}
	}()
	WorkerSweep(Options{Spec: quietHenri(), Seed: 1, World: quietWorld, App: cgApp, WorkerCounts: []int{99}})
}

func TestThrottleRecoversSendBandwidth(t *testing.T) {
	// §8: pausing workers during communication phases must improve the
	// sending bandwidth of a contention-bound app.
	base := runOnce(Options{Spec: quietHenri(), Seed: 1, World: quietWorld, App: cgApp}, 30)
	throttled := runOnce(Options{
		Spec: quietHenri(), Seed: 1, World: quietWorld, App: cgApp, CommThrottle: 24,
	}, 30)
	if throttled.SendBandwidth <= base.SendBandwidth {
		t.Fatalf("throttling did not improve send bandwidth: %.0f → %.0f MB/s",
			base.SendBandwidth/1e6, throttled.SendBandwidth/1e6)
	}
}

func TestNUMALocalSchedulerSpeedsUpCrossNUMAWork(t *testing.T) {
	// The §8 locality scheduler routes blocks to workers on their data's
	// NUMA node. On a task-dominated workload whose data is spread over
	// all NUMA nodes, FIFO executes most tasks with cross-socket
	// streams (bottlenecked by the shared UPI) while NUMA-local keeps
	// every stream on its home controller.
	spread := func() *taskrt.App {
		return &taskrt.App{
			Name:         "tune-spread",
			Slice:        func(i int) machine.ComputeSpec { return kernels.CGBlock(1024, 1024, i%4) },
			TasksPerIter: 90,
			Iterations:   2,
		}
	}
	fifo := runOnce(Options{Spec: quietHenri(), Seed: 1, World: quietWorld, App: spread}, 30)
	local := runOnce(Options{
		Spec: quietHenri(), Seed: 1, World: quietWorld, App: spread, Scheduler: taskrt.NUMALocal,
	}, 30)
	if local.IterSeconds >= fifo.IterSeconds*0.95 {
		t.Fatalf("NUMA-local scheduling did not help cross-NUMA work: %.4fs → %.4fs",
			fifo.IterSeconds, local.IterSeconds)
	}
}
