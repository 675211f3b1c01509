package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sim"
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
