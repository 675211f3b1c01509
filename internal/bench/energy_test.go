package bench

import (
	"reflect"
	"testing"

	"repro/internal/fault"
)

func TestExtEnergyTradeoff(t *testing.T) {
	// Lim et al. [14] (paper §7): lowering the CPU frequency during a
	// bandwidth-bound communication phase saves energy almost for free,
	// because DMA does the work. This paper's §3.1 counterpoint: a
	// latency-bound phase is clocked by the core, so downclocking costs
	// real time (and, through the longer phase, energy too).
	tbl := ExtEnergy(quietEnv())
	type row struct{ timeMs, joules float64 }
	get := func(phase string, ghz string) row {
		for _, r := range tbl.Rows {
			if r[0] == phase && r[1] == ghz {
				return row{atof(t, r[2]), atof(t, r[3])}
			}
		}
		t.Fatalf("missing row %s/%s in\n%s", phase, ghz, tbl)
		return row{}
	}
	const latPhase = "latency-bound (4B x 2000)"
	const bwPhase = "bandwidth-bound (16MB x 40)"

	latLo, latHi := get(latPhase, "1"), get(latPhase, "2.3")
	bwLo, bwHi := get(bwPhase, "1"), get(bwPhase, "2.3")

	// Latency-bound: downclocking costs >40% time.
	if latLo.timeMs < latHi.timeMs*1.4 {
		t.Fatalf("latency phase barely slowed by downclocking: %.2f vs %.2f ms",
			latLo.timeMs, latHi.timeMs)
	}
	// Bandwidth-bound: downclocking costs <5% time and saves energy.
	if bwLo.timeMs > bwHi.timeMs*1.05 {
		t.Fatalf("bandwidth phase slowed by downclocking: %.2f vs %.2f ms",
			bwLo.timeMs, bwHi.timeMs)
	}
	if bwLo.joules >= bwHi.joules {
		t.Fatalf("bandwidth phase saved no energy: %.2f vs %.2f J",
			bwLo.joules, bwHi.joules)
	}
}

func TestExtCollectivesShape(t *testing.T) {
	tbl := ExtCollectives(quietEnv())
	type row struct{ quiet, contended, slowdown float64 }
	get := func(op string, nodes string) row {
		for _, r := range tbl.Rows {
			if r[0] == op && r[1] == nodes {
				return row{atof(t, r[3]), atof(t, r[4]), atof(t, r[5])}
			}
		}
		t.Fatalf("missing %s/%s", op, nodes)
		return row{}
	}
	// Binomial depth: bcast time grows with log2(nodes), roughly linearly
	// in the tree depth for the rendezvous-sized payload.
	b2, b4, b8 := get("bcast", "2"), get("bcast", "4"), get("bcast", "8")
	if !(b2.quiet < b4.quiet && b4.quiet < b8.quiet) {
		t.Fatalf("bcast quiet times not increasing: %v %v %v", b2.quiet, b4.quiet, b8.quiet)
	}
	if b8.quiet > 4*b2.quiet {
		t.Fatalf("8-node bcast (%v) not log-ish vs 2-node (%v)", b8.quiet, b2.quiet)
	}
	// Contention slows every collective substantially (the p2p findings
	// compose), and allreduce (two tree traversals) more than bcast.
	for _, r := range []row{b2, b4, b8} {
		if r.slowdown < 1.5 {
			t.Fatalf("collective barely slowed under contention: %+v", r)
		}
	}
	a8 := get("allreduce", "8")
	if a8.quiet <= b8.quiet {
		t.Fatalf("allreduce (%v) not slower than bcast (%v)", a8.quiet, b8.quiet)
	}
}

// TestExtCollectivesUnderFaults: a fault schedule on the environment
// reaches the collectives' worlds. Every row of a lossy run differs
// from the healthy one, and the point records count the lost messages.
func TestExtCollectivesUnderFaults(t *testing.T) {
	healthy := ExtCollectives(quietEnv())
	sched, err := fault.ParseSpec("loss:p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	env := quietEnv()
	env.Faults = sched
	rr := &recordingRunner{}
	env.Sched = rr
	lossy := ExtCollectives(env)
	for i, row := range lossy.Rows {
		if reflect.DeepEqual(row, healthy.Rows[i]) {
			t.Errorf("row %v unchanged under loss", row)
		}
	}
	var lost float64
	for _, rec := range rr.recs {
		lost += rec.Faults.MsgsLost
	}
	if lost == 0 {
		t.Fatal("lossy collectives' records count no lost messages")
	}
}
