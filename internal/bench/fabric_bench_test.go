package bench

import (
	"testing"
	"time"

	"repro/internal/fluid"
	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/topology"
)

// fabricFluid1k builds the fluid substrate of the 1024-host fat-tree
// (k=16) the way the fabric experiments do, through machine.NewCluster
// and net.NewOnFabric: every node's resources first, then one resource
// per directed link (6144 of them), so the model is ordered and sized
// like a fabric-1k world. It is pre-loaded with `load` quasi-infinite
// routed flows so every churn step re-solves against a realistically
// entangled component structure. The flows pair host h with a host half
// the fabric away, so most paths climb to the core layer and the
// components are large.
func fabricFluid1k(tb testing.TB, load int) (*fluid.Model, *topology.Fabric, []*fluid.Resource) {
	tb.Helper()
	spec := topology.FabricPreset("fattree-k16")
	if spec == nil {
		tb.Fatal("fattree-k16 preset missing")
	}
	fab := spec.MustBuild()
	c := machine.NewCluster(topology.Henri(), fab.NHosts, 1)
	nw := net.NewOnFabric(c, fab, false)
	m := c.Fluid
	links := make([]*fluid.Resource, len(fab.Links))
	for i := range links {
		links[i] = nw.Link(i)
	}
	var buf []int
	for i := 0; i < load; i++ {
		src := (i * 3) % fab.NHosts
		dst := (src + fab.NHosts/2 + i%7) % fab.NHosts
		buf = fab.Route(src, dst, nil, buf)
		uses := make([]fluid.Use, len(buf))
		for j, li := range buf {
			uses[j] = fluid.Use{Resource: links[li], Weight: 1}
		}
		m.StartFlow("bg", 1e18, 12e9, uses, nil)
	}
	return m, fab, links
}

// fabricChurn runs start+cancel steps i..i+n over the loaded fabric:
// each step routes a fresh transfer, starts it, and cancels it — two
// incremental re-solves of the touched components, the unit of work
// every simulated transfer event costs.
func fabricChurn(m *fluid.Model, fab *topology.Fabric, links []*fluid.Resource, steps int) {
	var buf []int
	uses := make([]fluid.Use, 0, 8)
	for i := 0; i < steps; i++ {
		src := (i * 5) % fab.NHosts
		dst := (src + 1 + (i*11)%(fab.NHosts-1)) % fab.NHosts
		buf = fab.Route(src, dst, nil, buf)
		uses = uses[:0]
		for _, li := range buf {
			uses = append(uses, fluid.Use{Resource: links[li], Weight: 1})
		}
		f := m.StartFlow("churn", 1e12, 12e9, uses, nil)
		m.Cancel(f)
	}
}

// BenchmarkFabricSolve1k measures one start+cancel churn step — two
// incremental component re-solves — on the 1024-host fat-tree loaded
// with 512 persistent routed flows. BENCH_sim.json records its ns/op,
// which the CI fabric job ratchets against the sub-second acceptance
// bar.
func BenchmarkFabricSolve1k(b *testing.B) {
	m, fab, links := fabricFluid1k(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	fabricChurn(m, fab, links, b.N)
}

// TestFabricSolveBudget1k is the absolute acceptance bar behind the CI
// ratchet: on the 1k-host fat-tree under 512 concurrent flows, the mean
// incremental re-solve step must stay far under a second of wall time.
// The committed BENCH_sim.json records the precise trajectory; this
// test keeps the invariant enforced even where that file is absent.
func TestFabricSolveBudget1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-host fabric build; skipped with -short")
	}
	m, fab, links := fabricFluid1k(t, 512)
	if fab.NHosts != 1024 {
		t.Fatalf("fattree-k16 has %d hosts, want 1024", fab.NHosts)
	}
	const steps = 200
	start := time.Now()
	fabricChurn(m, fab, links, steps)
	mean := time.Since(start) / steps
	t.Logf("1k-host fat-tree: %d links, mean churn step %v", len(fab.Links), mean)
	if mean > time.Second {
		t.Fatalf("mean incremental solve step %v exceeds the 1s budget", mean)
	}
}

// TestFabricInterferenceSharedBaseline reads the golden interference
// cell (three striped jobs on the fat-tree k=4) against one solo
// baseline, minimal routing's. Adaptive routing speeds up the solo job
// too, so the per-routing slowdown ratios can rank the routings the
// wrong way round; the makespans show that adaptive routing finishes
// first.
func TestFabricInterferenceSharedBaseline(t *testing.T) {
	var minimal, adaptive FabricCell
	for _, cell := range FabricInterference(DefaultEnv(), "fattree-k4", []int{3}) {
		switch cell.Routing {
		case "minimal":
			minimal = cell
		case "adaptive":
			adaptive = cell
		}
	}
	solo := minimal.AloneSecs
	if solo <= 0 || minimal.SharedSecs < solo || adaptive.SharedSecs <= 0 {
		t.Fatalf("makespans out of shape: minimal %+v, adaptive %+v", minimal, adaptive)
	}
	if adaptive.SharedSecs >= minimal.SharedSecs {
		t.Errorf("adaptive makespan %.3f ms not below minimal %.3f ms (solo %.3f ms)",
			adaptive.SharedSecs*1e3, minimal.SharedSecs*1e3, solo*1e3)
	}
}

// TestFabricDifferentialK8 runs full multi-job worlds on the 128-host
// fat-tree, under minimal and adaptive routing, with the fluid
// differential oracle armed: every solve of the world — components of
// hundreds of resources, which take the solver's heap and sort paths —
// is shadowed by the reference solver and must agree with it to the ulp
// (the oracle panics otherwise).
func TestFabricDifferentialK8(t *testing.T) {
	if testing.Short() {
		t.Skip("128-host fabric under the differential oracle; skipped with -short")
	}
	fluid.SetDifferential(true)
	defer fluid.SetDifferential(false)
	fab := topology.FabricPreset("fattree-k8").MustBuild()
	for _, adaptive := range []bool{false, true} {
		cfg := FabricConfig{Preset: "fattree-k8", Adaptive: adaptive, Jobs: 3, Rounds: 2, Bytes: 1 << 20, Shift: true}
		c, nw := fabricWorld(quietEnv(), fab, adaptive, 1)
		for j, ms := range runFabricJobs(c, nw, stripedJobs(fab.NHosts, cfg.Jobs), cfg) {
			if ms <= 0 {
				t.Fatalf("%s: job %d reported makespan %v", cfg.routing(), j, ms)
			}
		}
		c.K.Shutdown()
	}
}
