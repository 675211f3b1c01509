package bench

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestExecutePointIsolation: a point mutating its spec must not leak the
// mutation into the caller's environment.
func TestExecutePointIsolation(t *testing.T) {
	env := quietEnv()
	want := env.Spec.Cores()
	rec := ExecutePoint(env, Point{Key: "t/mutate", Fn: func(e Env) any {
		e.Spec.CoresPerNUMA = 1
		return struct{ X int }{1}
	}})
	if rec.Panic != nil {
		t.Fatalf("panic: %v", rec.Panic)
	}
	if env.Spec.Cores() != want {
		t.Fatal("point mutated the caller's spec")
	}
}

// TestExecutePointCapturesPanic: a panicking Fn yields a record carrying
// the panic value instead of unwinding the executor.
func TestExecutePointCapturesPanic(t *testing.T) {
	rec := ExecutePoint(quietEnv(), Point{Key: "t/panic", Fn: func(Env) any {
		panic("boom")
	}})
	if rec.Panic != "boom" {
		t.Fatalf("Panic = %v, want boom", rec.Panic)
	}
	if rec.Payload != nil {
		t.Fatal("panicked record has a payload")
	}
}

// TestExecutePointRejectsNaN: results that cannot survive a codec
// round trip are turned into captured panics, not silent corruption.
func TestExecutePointRejectsNaN(t *testing.T) {
	rec := ExecutePoint(quietEnv(), Point{Key: "t/nan", Fn: func(Env) any {
		return struct{ V float64 }{math.NaN()}
	}})
	s, ok := rec.Panic.(string)
	if !ok || !strings.Contains(s, "not encodable") {
		t.Fatalf("Panic = %v, want an encodability error", rec.Panic)
	}
}

// TestRunPointsAsRepanicsInOwner: RunPointsAs re-raises a captured point
// panic on the calling goroutine.
func TestRunPointsAsRepanicsInOwner(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("recovered %v, want boom", p)
		}
	}()
	RunPointsAs[struct{}](quietEnv(), []Point{
		{Key: "t/panic", Fn: func(Env) any { panic("boom") }},
	})
	t.Fatal("no panic")
}

// TestRunPointsAsAbsorbsMeter: the owner's meter totals exactly what its
// points' records carry, in index order, while worlds built outside a
// point are not accounted at all.
func TestRunPointsAsAbsorbsMeter(t *testing.T) {
	pts := []Point{
		{Key: "t/latency", Fn: func(e Env) any { return Interference(e, LatencyConfig(), ComputeConfig{}) }},
		{Key: "t/bandwidth", Fn: func(e Env) any { return Interference(e, BandwidthConfig(), ComputeConfig{}) }},
	}
	var worlds int
	var secs float64
	for _, p := range pts {
		rec := ExecutePoint(quietEnv(), p)
		worlds += rec.Worlds
		secs += rec.SimSeconds
	}
	if worlds == 0 || secs <= 0 {
		t.Fatalf("records account %d worlds, %v s", worlds, secs)
	}

	swept := quietEnv().Isolated()
	RunPointsAs[InterferenceResult](swept, pts)
	if got := swept.Meter.Worlds(); got != worlds {
		t.Fatalf("worlds: meter %d, records %d", got, worlds)
	}
	if got := swept.Meter.SimSeconds(); got != secs {
		t.Fatalf("sim seconds: meter %v, records %v", got, secs)
	}

	direct := quietEnv().Isolated()
	Interference(direct, LatencyConfig(), ComputeConfig{})
	if w, s := direct.Meter.Worlds(), direct.Meter.SimSeconds(); w != 0 || s != 0 {
		t.Fatalf("a direct run outside any point was accounted: %d worlds, %v s", w, s)
	}
}

// TestExecutePointSealsFromEveryWorld: a point's record accounts for the
// worlds it built itself and for those its nested sweeps built, and its
// simulated seconds and fault totals are the sums over them all.
func TestExecutePointSealsFromEveryWorld(t *testing.T) {
	sched, err := fault.ParseSpec("loss:p=0.2")
	if err != nil {
		t.Fatal(err)
	}
	env := quietEnv()
	env.Faults = sched
	var secs [2]float64
	var faults [2]counters.Faults
	// pingWorld runs one lossy ping-pong in a world of its own and notes
	// the world's end time and fault counters.
	pingWorld := func(env Env, i int) {
		c, w := newWorld(env, 2, env.Seed+int64(i))
		pp := applyComm(w, LatencyConfig())
		pp.Start(w, 0, nil)
		c.K.Run()
		secs[i], faults[i] = sim.Duration(c.K.Now()).Seconds(), clusterFaults(c)
	}
	rec := ExecutePoint(env, Point{Key: "t/nested", Fn: func(e Env) any {
		pingWorld(e, 0)
		RunPointsAs[struct{}](e, []Point{{Key: "t/inner", Fn: func(e Env) any {
			pingWorld(e, 1)
			return struct{}{}
		}}})
		return struct{}{}
	}})
	if rec.Panic != nil {
		t.Fatal(rec.Panic)
	}
	if rec.Worlds != 2 {
		t.Fatalf("Worlds = %d, want 2", rec.Worlds)
	}
	if want := secs[1] + secs[0]; rec.SimSeconds != want {
		t.Fatalf("SimSeconds = %v, want %v", rec.SimSeconds, want)
	}
	want := faults[1]
	want.Add(faults[0])
	if rec.Faults != want || faults[0].MsgsLost == 0 || faults[1].MsgsLost == 0 {
		t.Fatalf("Faults = %+v, want %+v with losses in both worlds", rec.Faults, want)
	}
}

// TestRunPointsAsMatchesDirectCall: the codec round trip that
// canonicalises point results must be lossless for the drivers' result
// types.
func TestRunPointsAsMatchesDirectCall(t *testing.T) {
	direct := Interference(quietEnv().Isolated(), LatencyConfig(), ComputeConfig{})
	got := RunPointsAs[InterferenceResult](quietEnv().Isolated(), []Point{
		{Key: "t/interference", Fn: func(e Env) any {
			return Interference(e, LatencyConfig(), ComputeConfig{})
		}},
	})
	if !reflect.DeepEqual(got[0], direct) {
		t.Fatalf("round-trip drift:\n swept %+v\ndirect %+v", got[0], direct)
	}
}

// recordingRunner proves RunPointsAs routes through Env.Sched and keeps
// index alignment regardless of the runner's execution order. It keeps
// the keys it ran, in execution order, and the records, in index order.
type recordingRunner struct {
	keys []string
	recs []PointRecord
}

func (r *recordingRunner) RunPoints(env Env, pts []Point) []PointRecord {
	recs := make([]PointRecord, len(pts))
	// Execute in reverse to prove the caller's decode is index-ordered.
	for i := len(pts) - 1; i >= 0; i-- {
		r.keys = append(r.keys, pts[i].Key)
		recs[i] = ExecutePoint(env, pts[i])
	}
	r.recs = append(r.recs, recs...)
	return recs
}

func TestRunPointsAsUsesScheduler(t *testing.T) {
	env := quietEnv()
	rr := &recordingRunner{}
	env.Sched = rr
	pts := make([]Point, 4)
	for i := range pts {
		i := i
		pts[i] = Point{Key: fmt.Sprintf("t/cell/%d", i), Fn: func(Env) any {
			return struct{ I int }{i}
		}}
	}
	out := RunPointsAs[struct{ I int }](env, pts)
	if len(rr.keys) != 4 {
		t.Fatalf("scheduler saw %d points", len(rr.keys))
	}
	for i, v := range out {
		if v.I != i {
			t.Fatalf("index %d decoded %d: merge not index-aligned", i, v.I)
		}
	}
}

// TestExecutePointRunsNestedSweepsInline: a sweep nested inside a point
// (e.g. the ablation's inner contention sweep) must not re-enter the
// campaign scheduler.
func TestExecutePointRunsNestedSweepsInline(t *testing.T) {
	env := quietEnv()
	env.Sched = &recordingRunner{} // would be observed by a nested sweep
	rec := ExecutePoint(env, Point{Key: "t/nested", Fn: func(e Env) any {
		if e.Sched != nil {
			t.Error("nested point sees the campaign scheduler")
		}
		return struct{}{}
	}})
	if rec.Panic != nil {
		t.Fatalf("panic: %v", rec.Panic)
	}
}

// BenchmarkInterferencePoint measures the hot measurement path of every
// sweep cell — Interference with its preallocated accumulators — so
// allocation regressions in the per-point loop surface here.
func BenchmarkInterferencePoint(b *testing.B) {
	env := quietEnv()
	comm := LatencyConfig()
	comm.Iters, comm.Warmup = 10, 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Interference(env.Isolated(), comm, ComputeConfig{})
	}
}

// BenchmarkExecutePoint measures the full point envelope: isolation,
// execution, and the payload encoding of the record.
func BenchmarkExecutePoint(b *testing.B) {
	benchExecutePoint(b, ComputeConfig{})
}

// The per-kernel-family variants run the same envelope with each family
// of compute kernel alongside the ping-pong, so an allocation
// regression in one kernel's exec path (roofline accounting, stream
// census, placement) is attributed to its family instead of vanishing
// into the aggregate.
func BenchmarkExecutePointPingpong(b *testing.B) {
	benchExecutePoint(b, ComputeConfig{})
}

func BenchmarkExecutePointCG(b *testing.B) {
	benchExecutePoint(b, ComputeConfig{Slice: kernels.CGBlock(64, 64, -1), Cores: 3, MinIters: 2})
}

func BenchmarkExecutePointTriad(b *testing.B) {
	benchExecutePoint(b, ComputeConfig{Slice: kernels.StreamTriad(1<<14, 0), Cores: 2, MinIters: 2})
}

func benchExecutePoint(b *testing.B, comp ComputeConfig) {
	b.Helper()
	env := quietEnv()
	comm := LatencyConfig()
	comm.Iters, comm.Warmup = 10, 2
	p := Point{Key: "bench/interference", Fn: func(e Env) any {
		return Interference(e, comm, comp)
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := ExecutePoint(env, p)
		if rec.Panic != nil {
			b.Fatal(rec.Panic)
		}
	}
}

// TestSoloCommKeyNamesEveryField: the comm-alone point is shared by
// every cell whose key matches, so two configurations that differ in
// any one CommConfig field must get different keys — or a cell would
// be served another configuration's baseline.
func TestSoloCommKeyNamesEveryField(t *testing.T) {
	base := BandwidthConfig()
	baseKey := soloCommPoint(base).Key
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		cc := base
		f := reflect.ValueOf(&cc).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 7)
		default:
			t.Fatalf("CommConfig.%s is a %s: teach this test to vary it", typ.Field(i).Name, f.Kind())
		}
		if soloCommPoint(cc).Key == baseKey {
			t.Errorf("solo key %q ignores CommConfig.%s", baseKey, typ.Field(i).Name)
		}
	}
}
