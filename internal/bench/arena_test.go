package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/taskrt"
)

// diffPoints is a small point set exercising every pooled subsystem:
// pure ping-pong (eager and rendezvous sizes), CPU-bound compute,
// memory-bound compute with placement, and a multi-run config.
func diffPoints() []Point {
	lat := LatencyConfig()
	lat.Iters, lat.Warmup = 8, 2
	bw := BandwidthConfig()
	bw.Iters, bw.Warmup = 2, 1
	cg := ComputeConfig{Slice: kernels.CGBlock(64, 64, -1), Cores: 3, MinIters: 2}
	triad := ComputeConfig{Slice: kernels.StreamTriad(1<<14, 0), Cores: 2, MinIters: 2}
	cpu := ComputeConfig{Slice: kernels.PrimeCount(1e5), Cores: 2, MinIters: 2}
	return []Point{
		{Key: "t/arena/lat", Fn: func(e Env) any { return Interference(e, lat, ComputeConfig{}) }},
		{Key: "t/arena/bw", Fn: func(e Env) any { return Interference(e, bw, ComputeConfig{}) }},
		{Key: "t/arena/cg", Fn: func(e Env) any { return Interference(e, lat, cg) }},
		{Key: "t/arena/triad", Fn: func(e Env) any { return Interference(e, bw, triad) }},
		{Key: "t/arena/cpu", Fn: func(e Env) any { return Interference(e, lat, cpu) }},
	}
}

func encodeRecord(t *testing.T, rec PointRecord) []byte {
	t.Helper()
	if rec.Panic != nil {
		t.Fatalf("point %q panicked: %v", rec.Key, rec.Panic)
	}
	return rec.EncodeBinary()
}

// TestPooledEnvMatchesFresh is the differential lock on the world
// arena: executing the same points through pooled environments — both
// on a cold arena (worlds freshly built, then parked) and on a warm one
// (worlds rewound and reused) — must produce records byte-identical to
// a NoPool run that builds every world from scratch.
func TestPooledEnvMatchesFresh(t *testing.T) {
	pts := diffPoints()

	fresh := quietEnv()
	fresh.NoPool = true
	want := make([][]byte, len(pts))
	for i, p := range pts {
		want[i] = encodeRecord(t, ExecutePoint(fresh, p))
	}

	pooled := quietEnv()
	for pass := 0; pass < 3; pass++ {
		for i, p := range pts {
			got := encodeRecord(t, ExecutePoint(pooled, p))
			if !bytes.Equal(got, want[i]) {
				t.Errorf("pass %d point %q: pooled record differs from fresh\npooled: %s\nfresh:  %s",
					pass, p.Key, got, want[i])
			}
		}
	}

	arena.mu.Lock()
	parked := arena.count
	arena.mu.Unlock()
	if parked == 0 {
		t.Fatal("arena parked no worlds: pooling never engaged")
	}
}

// TestArenaReuseStorm pushes the full differential point set through
// pooled execution many times over, interleaving seeds and spec
// mutations, so a reset protocol that leaks any state across reuses
// (counters, frequency governors, link capacities, matching queues)
// diverges from the per-seed fresh baseline. Run under -race this also
// exercises the arena's locking from the campaign pool tests.
func TestArenaReuseStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("reuse storm; skipped with -short")
	}
	pts := diffPoints()
	want := map[string][]byte{}
	for seed := int64(1); seed <= 3; seed++ {
		fresh := quietEnv()
		fresh.Seed = seed
		fresh.NoPool = true
		for _, p := range pts {
			want[fmt.Sprintf("%s@%d", p.Key, seed)] = encodeRecord(t, ExecutePoint(fresh, p))
		}
	}
	pooled := quietEnv()
	for pass := 0; pass < 4; pass++ {
		for seed := int64(1); seed <= 3; seed++ {
			env := pooled
			env.Seed = seed
			for _, p := range pts {
				got := encodeRecord(t, ExecutePoint(env, p))
				if !bytes.Equal(got, want[fmt.Sprintf("%s@%d", p.Key, seed)]) {
					t.Fatalf("pass %d seed %d point %q: pooled record diverged", pass, seed, p.Key)
				}
			}
		}
	}
}

// TestPointReleasesWorldGoroutines checks that the worlds the arena does
// not pool — fabric and fault worlds, and a healthy world left with a
// process blocked for good — take their process coroutines with them
// when the point that built them is done, and that the blocked body's
// defers run once on the way out.
func TestPointReleasesWorldGoroutines(t *testing.T) {
	lat := LatencyConfig()
	lat.Iters, lat.Warmup = 8, 2
	unwound := 0
	pts := []Point{
		{Key: "t/leak/fabric", Fn: func(e Env) any {
			return fabricCell(e, FabricConfig{Preset: "fattree-k4", Jobs: 3, Rounds: 2, Bytes: 64 << 10, Shift: true})
		}},
		{Key: "t/leak/faults", Fn: func(e Env) any {
			e.Faults = FaultIntensitySchedule(0.3)
			lats, _ := runFaultPingPong(e, lat)
			return lats
		}},
		{Key: "t/leak/stuck", Fn: func(e Env) any {
			c, _ := newWorld(e, 2, e.Seed)
			never := c.K.GetSignal()
			c.K.Spawn("stuck", func(p *sim.Proc) {
				defer func() { unwound++ }()
				never.Wait(p)
			})
			c.K.Run()
			return c.K.LiveProcs()
		}},
	}
	base := runtime.NumGoroutine()
	for _, p := range pts {
		encodeRecord(t, ExecutePoint(quietEnv(), p))
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after executing the points, %d before", n, base)
	}
	if unwound != 1 {
		t.Fatalf("the blocked process's defer ran %d times, want once", unwound)
	}
}

// TestHeldLoopWorldIsNotParked: a poolable world one of whose nodes
// crashes for good under computeBeside ends with that node's loops held
// at a slice boundary, with no pending event and no process left.
// releaseWorlds must shut it down instead of parking it: the loops'
// wakeups are still queued on the node's recovery, which a later point
// on the rewound world would fire.
func TestHeldLoopWorldIsNotParked(t *testing.T) {
	const cores = 4
	var world *machine.Cluster
	pt := Point{Key: "t/arena/held-loops", Fn: func(e Env) any {
		c, w := newWorld(e, 2, e.Seed)
		world = c
		if !e.keeper.pools(c) {
			t.Error("the world is not poolable")
		}
		stop := computeBeside(c, computeCores(e.Spec, cores, w.Rank(0).CommCore), kernels.StreamTriad(1<<14, 0), nil)
		c.K.At(sim.Time(10*sim.Microsecond), func() { c.Nodes[1].SetDown(true) })
		c.K.At(sim.Time(sim.Millisecond), stop)
		c.K.Run()
		return c.Loops()
	}}
	encodeRecord(t, ExecutePoint(quietEnv(), pt))
	if !world.K.Idle() || world.K.LiveProcs() != 0 || world.Loops() != cores {
		t.Fatalf("world ended with idle=%v, %d live processes and %d loops in flight; want idle, none and %d",
			world.K.Idle(), world.K.LiveProcs(), world.Loops(), cores)
	}
	if inArena(world) {
		t.Fatal("the world with held loops was parked in the arena")
	}
}

// TestPollingWorkersWorldIsNotParked: a poolable world whose two task
// runtimes were started and never shut down ends with their workers
// idle, waiting for a push: no pending event, no process and no loop,
// but every worker's poll flow still active. releaseWorlds must shut
// it down instead of parking it: Cluster.Reset needs a world with no
// active flow.
func TestPollingWorkersWorldIsNotParked(t *testing.T) {
	workers := []int{1, 2, 3}
	var world *machine.Cluster
	flows := 0
	pt := Point{Key: "t/arena/polling-workers", Fn: func(e Env) any {
		c, _, _ := starpuPair(e, e.Seed, -1, workers, taskrt.DefaultBackoff)
		world = c
		if !e.keeper.pools(c) {
			t.Error("the world is not poolable")
		}
		c.K.Run()
		flows = c.Fluid.FlowCount()
		return flows
	}}
	encodeRecord(t, ExecutePoint(quietEnv(), pt))
	if !world.K.Idle() || world.K.LiveProcs() != 0 || world.Loops() != 0 || flows != 2*len(workers) {
		t.Fatalf("world ended with idle=%v, %d live processes, %d loops in flight and %d flows; want idle, none, none and %d",
			world.K.Idle(), world.K.LiveProcs(), world.Loops(), flows, 2*len(workers))
	}
	if inArena(world) {
		t.Fatal("the world with polling workers was parked in the arena")
	}
}

// inArena reports whether world is parked in the arena.
func inArena(world *machine.Cluster) bool {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	for _, q := range arena.free {
		for _, pw := range q {
			if pw.c == world {
				return true
			}
		}
	}
	return false
}
