package fluid

import (
	"testing"

	"repro/internal/sim"
)

// Solver benchmarks, in incremental/reference pairs so BENCH_sim.json
// can report the speedup and allocation ratios directly. The
// *PaperScale variants use the shape of the paper's experiments: a
// henri-node-sized resource graph (2 NUMA nodes: controllers, inter-die
// link, per-core ports) with 35 concurrent flows — the largest flow
// count any figure drives through one node.

// benchTopology builds ~20 resources with 40 flows spread across them,
// the scale of a loaded node.
func benchTopology(b *testing.B) *Model {
	b.Helper()
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = false
	var res []*Resource
	for i := 0; i < 20; i++ {
		res = append(res, m.NewResource("r", 50e9))
	}
	for i := 0; i < 40; i++ {
		uses := []Use{{res[i%20], 1}}
		if i%3 == 0 {
			uses = append(uses, Use{res[(i+7)%20], 1})
		}
		m.StartFlow("f", 1e18, 12e9, uses, nil)
	}
	return m
}

// paperTopology models a henri node at paper scale: 2 NUMA domains,
// each with a memory controller and 8 core ports, plus the UPI link —
// 19 resources — loaded with 35 flows (compute kernels pinned to a
// port+controller, memory streams crossing the link).
func paperTopology(b *testing.B) *Model {
	b.Helper()
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = false
	ctrl := []*Resource{m.NewResource("numa0.mc", 45e9), m.NewResource("numa1.mc", 45e9)}
	upi := m.NewResource("upi", 20e9)
	var ports []*Resource
	for i := 0; i < 16; i++ {
		ports = append(ports, m.NewResource("port", 15e9))
	}
	for i := 0; i < 35; i++ {
		port := ports[i%16]
		local := ctrl[(i%16)/8]
		uses := []Use{{port, 1}, {local, 1}}
		if i%4 == 0 { // remote accesses cross the inter-die link
			uses = append(uses, Use{upi, 1}, Use{ctrl[1-(i%16)/8], 1})
		}
		m.StartFlow("k", 1e18, 14e9, uses, nil)
	}
	return m
}

// BenchmarkSolve measures one full progressive-filling pass of the
// incremental solver (all components dirty) at loaded-node scale.
func BenchmarkSolve(b *testing.B) {
	m := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.solveAll()
	}
}

// BenchmarkSolveReference is the same pass through the original
// map-based whole-model solver.
func BenchmarkSolveReference(b *testing.B) {
	m := benchTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.solveReferenceInPlace()
	}
}

// BenchmarkSolvePaperScale is a full pass over the henri-sized graph
// with 35 flows.
func BenchmarkSolvePaperScale(b *testing.B) {
	m := paperTopology(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.solveAll()
	}
}

// churn runs start+cancel cycles of a flow with the given cap on the
// first resource of a loaded-node model — the dominant cost of
// fine-grained kernels — and reports the solves they cost. The uses
// slice lives outside the loop: Start copies it, so steady-state churn
// allocates only the Flow struct itself. With reuse false the model
// re-solves what it has solved before (see reuseSolves), so the churn
// measures real solves.
func churn(b *testing.B, m *Model, cap float64, reuse bool) {
	b.Helper()
	withReuse(reuse, func() {
		uses := []Use{{m.resources[0], 1}}
		solves := m.Solves()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := m.StartFlow("churn", 1e12, cap, uses, nil)
			m.Cancel(f)
		}
		b.ReportMetric(float64(m.Solves()-solves)/float64(b.N), "solves/op")
	})
}

// BenchmarkFlowChurnResolve starts and cancels an uncapped flow, which
// saturates the resource it shares with three capped flows: each start
// and cancel re-solves the component (reuse off).
func BenchmarkFlowChurnResolve(b *testing.B) {
	churn(b, benchTopology(b), 0, false)
}

// BenchmarkFlowChurnResolveReference is the same churn through the
// original map-based whole-model solver.
func BenchmarkFlowChurnResolveReference(b *testing.B) {
	m := benchTopology(b)
	m.UseReference(true)
	churn(b, m, 0, false)
}

// BenchmarkFlowChurnIsolated starts and cancels a flow capped well under
// the room its resource has left: the flow is isolated, and neither the
// start nor the cancel re-solves (see isolated).
func BenchmarkFlowChurnIsolated(b *testing.B) {
	churn(b, benchTopology(b), 12e9, true)
}

// BenchmarkFlowChurnPaperScale starts and cancels a capped memory-stream
// flow on a saturated controller of the loaded henri-sized graph: each
// start and cancel re-solves the node's component (reuse off).
func BenchmarkFlowChurnPaperScale(b *testing.B) {
	churn(b, paperTopology(b), 12e9, false)
}

// BenchmarkFlowChurnPaperScaleReuse is the same churn with reuse on:
// after the first cycle every start writes back its recorded solve and
// every cancel undoes the start, so no cycle solves (see startReused and
// undo).
func BenchmarkFlowChurnPaperScaleReuse(b *testing.B) {
	churn(b, paperTopology(b), 12e9, true)
}

// BenchmarkIsolatedBurst starts 1,024 capped flows at one instant, each
// on a NIC of its own and one of 16 roomy links that carry 64 flows in
// flight: a fabric-1k round's hosts starting their transfers when its
// barrier releases. One op is the whole burst; every start is isolated,
// and every start after the first folds into the first one's scan (see
// startIsolated).
func BenchmarkIsolatedBurst(b *testing.B) {
	const hosts, links = 1024, 16
	uses := make([][]Use, hosts)
	var scans uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := sim.NewKernel(1)
		m := NewModel(k)
		m.differential = false
		var link []*Resource
		for l := 0; l < links; l++ {
			link = append(link, m.NewResource("link", 1e4))
		}
		for h := range uses {
			uses[h] = []Use{{m.NewResource("nic", 50), 1}, {link[h%links], 1}}
		}
		for j := 0; j < 4*links; j++ {
			m.StartFlow("bg", 1e3, float64(10+j%3*5), []Use{{link[j%links], 1}}, nil)
		}
		k.RunUntil(k.Now().Add(sim.Millisecond))
		before := m.scans
		b.StartTimer()
		for _, u := range uses {
			m.StartFlow("dma", 1e3, 5, u, nil)
		}
		scans += m.scans - before
	}
	b.ReportMetric(float64(scans)/float64(b.N), "scans/op")
}
