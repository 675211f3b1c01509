package fluid

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowSingleResource(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100) // 100 units/s
	var doneAt sim.Time
	m.StartFlow("f", 50, 0, []Use{{r, 1}}, func() { doneAt = k.Now() })
	k.Run()
	// 50 units at 100/s = 0.5 s.
	if doneAt != sim.Time(500*sim.Millisecond) {
		t.Fatalf("done at %v, want 0.5s", doneAt)
	}
}

func TestEqualSharing(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	f1 := m.StartFlow("a", 100, 0, []Use{{r, 1}}, nil)
	f2 := m.StartFlow("b", 100, 0, []Use{{r, 1}}, nil)
	if !almost(f1.Rate(), 50, 1e-9) || !almost(f2.Rate(), 50, 1e-9) {
		t.Fatalf("rates %v %v, want 50 each", f1.Rate(), f2.Rate())
	}
	if !almost(r.Utilization(), 1.0, 1e-9) {
		t.Fatalf("utilization %v, want 1", r.Utilization())
	}
}

func TestWeightedSharing(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 90)
	// Weight-2 flow consumes twice the capacity per unit of progress.
	f1 := m.StartFlow("heavy", 100, 0, []Use{{r, 2}}, nil)
	f2 := m.StartFlow("light", 100, 0, []Use{{r, 1}}, nil)
	// fair = 90/3 = 30 for both; heavy consumes 60, light 30.
	if !almost(f1.Rate(), 30, 1e-9) || !almost(f2.Rate(), 30, 1e-9) {
		t.Fatalf("rates %v %v, want 30 each", f1.Rate(), f2.Rate())
	}
}

func TestRateCapFreesCapacityForOthers(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	capped := m.StartFlow("capped", 1000, 10, []Use{{r, 1}}, nil)
	free := m.StartFlow("free", 1000, 0, []Use{{r, 1}}, nil)
	if !almost(capped.Rate(), 10, 1e-9) {
		t.Fatalf("capped rate %v, want 10", capped.Rate())
	}
	if !almost(free.Rate(), 90, 1e-9) {
		t.Fatalf("free rate %v, want 90 (leftover)", free.Rate())
	}
}

func TestTwoResourceBottleneck(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	wide := m.NewResource("wide", 100)
	narrow := m.NewResource("narrow", 10)
	// Flow crossing both is limited by the narrow one.
	f := m.StartFlow("cross", 100, 0, []Use{{wide, 1}, {narrow, 1}}, nil)
	other := m.StartFlow("wide-only", 100, 0, []Use{{wide, 1}}, nil)
	if !almost(f.Rate(), 10, 1e-9) {
		t.Fatalf("crossing rate %v, want 10", f.Rate())
	}
	if !almost(other.Rate(), 90, 1e-9) {
		t.Fatalf("wide-only rate %v, want 90", other.Rate())
	}
}

func TestCompletionRedistributesBandwidth(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	var shortDone, longDone sim.Time
	m.StartFlow("short", 50, 0, []Use{{r, 1}}, func() { shortDone = k.Now() })
	m.StartFlow("long", 100, 0, []Use{{r, 1}}, func() { longDone = k.Now() })
	k.Run()
	// Both run at 50/s. short finishes at t=1s with long having 50 left;
	// long then runs at 100/s, finishing 0.5s later at t=1.5s.
	if !almost(shortDone.Sub(0).Seconds(), 1.0, 1e-6) {
		t.Fatalf("short done at %v, want 1s", shortDone)
	}
	if !almost(longDone.Sub(0).Seconds(), 1.5, 1e-6) {
		t.Fatalf("long done at %v, want 1.5s", longDone)
	}
}

func TestCancelRedistributes(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	f1 := m.StartFlow("a", 1e9, 0, []Use{{r, 1}}, nil)
	f2 := m.StartFlow("b", 1e9, 0, []Use{{r, 1}}, nil)
	m.Cancel(f1)
	if !f1.Finished() {
		t.Fatal("cancelled flow not finished")
	}
	if !almost(f2.Rate(), 100, 1e-9) {
		t.Fatalf("survivor rate %v, want 100", f2.Rate())
	}
}

func TestSetCapacityMidFlight(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	var doneAt sim.Time
	m.StartFlow("f", 100, 0, []Use{{r, 1}}, func() { doneAt = k.Now() })
	// After 0.5s (50 units done), halve the capacity: the remaining 50
	// units take 1s more → total 1.5s.
	k.After(sim.Duration(500*sim.Millisecond), func() { m.SetCapacity(r, 50) })
	k.Run()
	if !almost(doneAt.Sub(0).Seconds(), 1.5, 1e-6) {
		t.Fatalf("done at %v, want 1.5s", doneAt)
	}
}

func TestSetCapMidFlight(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	var doneAt sim.Time
	f := m.StartFlow("cpu", 100, 100, nil, func() { doneAt = k.Now() })
	// Frequency drop halfway: cap 100 → 25. 50 done at 0.5s, remaining 50
	// at 25/s = 2s → total 2.5s.
	k.After(sim.Duration(500*sim.Millisecond), func() { m.SetCap(f, 25) })
	k.Run()
	if !almost(doneAt.Sub(0).Seconds(), 2.5, 1e-6) {
		t.Fatalf("done at %v, want 2.5s", doneAt)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	done := false
	m.StartFlow("zero", 0, 0, []Use{{r, 1}}, func() { done = true })
	k.Run()
	if !done || k.Now() != 0 {
		t.Fatalf("zero-work flow: done=%v at %v", done, k.Now())
	}
}

// TestExecBlocksProcess: a process that starts a flow and waits on its
// completion signal resumes when the work is done.
func TestExecBlocksProcess(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	var d sim.Duration
	k.Spawn("worker", func(p *sim.Proc) {
		start := p.Now()
		done := sim.NewSignal(k)
		m.StartFlow("work", 200, 0, []Use{{r, 1}}, done.Broadcast)
		done.Wait(p)
		d = p.Now().Sub(start)
	})
	k.Run()
	if !almost(d.Seconds(), 2.0, 1e-6) {
		t.Fatalf("the flow took %v, want 2s", d)
	}
	if k.LiveProcs() != 0 {
		t.Fatal("leaked process")
	}
}

func TestManyFlowsFairShare(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("ctrl", 64e9) // 64 GB/s controller
	const n = 35
	flows := make([]*Flow, n)
	for i := range flows {
		flows[i] = m.StartFlow("stream", 1e12, 7e9, []Use{{r, 1}}, nil)
	}
	// 35 streams capped at 7 GB/s share 64 GB/s: fair = 64/35 ≈ 1.83 GB/s.
	want := 64e9 / n
	for i, f := range flows {
		if !almost(f.Rate(), want, 1) {
			t.Fatalf("flow %d rate %v, want %v", i, f.Rate(), want)
		}
	}
	// A DMA flow with arbitration priority 4 gets a 4x larger share of the
	// contended controller than each core stream.
	dma := m.Start(FlowSpec{Name: "dma", Work: 1e12, Cap: 12.5e9, Priority: 4, Uses: []Use{{r, 1}}})
	if dma.Rate() <= want*3 {
		t.Fatalf("prioritised DMA rate %v not ~4x fair share %v", dma.Rate(), want)
	}
}

// Property: total consumption never exceeds capacity, and no flow with a
// cap exceeds it.
func TestPropertyConservation(t *testing.T) {
	f := func(seed int64, nf uint8, nr uint8) bool {
		k := sim.NewKernel(seed)
		m := NewModel(k)
		rng := k.Rand()
		nres := int(nr%4) + 1
		res := make([]*Resource, nres)
		for i := range res {
			res[i] = m.NewResource("r", 10+rng.Float64()*90)
		}
		nflows := int(nf%12) + 1
		for i := 0; i < nflows; i++ {
			var uses []Use
			for _, r := range res {
				if rng.Intn(2) == 0 {
					uses = append(uses, Use{r, 0.5 + rng.Float64()*2})
				}
			}
			cap := 0.0
			if rng.Intn(3) == 0 || len(uses) == 0 {
				cap = 1 + rng.Float64()*50
			}
			m.StartFlow("f", 1e6, cap, uses, nil)
		}
		// Check feasibility of the solved allocation.
		for _, r := range res {
			if r.load > r.capacity*(1+1e-9) {
				return false
			}
		}
		for _, fl := range m.flows {
			if fl.cap > 0 && fl.rate > fl.cap*(1+1e-9) {
				return false
			}
			if fl.rate < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: max-min fairness — a flow's rate can only be below another's
// if some resource it uses is saturated.
func TestPropertyMaxMinFair(t *testing.T) {
	k := sim.NewKernel(7)
	m := NewModel(k)
	r1 := m.NewResource("r1", 100)
	r2 := m.NewResource("r2", 30)
	fa := m.StartFlow("a", 1e9, 0, []Use{{r1, 1}}, nil)
	fb := m.StartFlow("b", 1e9, 0, []Use{{r1, 1}, {r2, 1}}, nil)
	fc := m.StartFlow("c", 1e9, 0, []Use{{r2, 1}}, nil)
	// b and c share r2: 15 each. a then gets 100-15=85 on r1.
	if !almost(fb.Rate(), 15, 1e-9) || !almost(fc.Rate(), 15, 1e-9) {
		t.Fatalf("rates b=%v c=%v, want 15", fb.Rate(), fc.Rate())
	}
	if !almost(fa.Rate(), 85, 1e-9) {
		t.Fatalf("rate a=%v, want 85", fa.Rate())
	}
	if !almost(r2.Utilization(), 1, 1e-9) {
		t.Fatalf("r2 utilization %v, want 1 (saturated)", r2.Utilization())
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("zero capacity", func() { m.NewResource("bad", 0) })
	expectPanic("no uses no cap", func() { m.StartFlow("bad", 1, 0, nil, nil) })
	r := m.NewResource("ok", 1)
	expectPanic("bad weight", func() { m.StartFlow("bad", 1, 0, []Use{{r, 0}}, nil) })
	expectPanic("negative work", func() { m.StartFlow("bad", -1, 1, nil, nil) })
}

func TestUtilizationPartial(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	r := m.NewResource("bus", 100)
	m.StartFlow("f", 1e9, 25, []Use{{r, 1}}, nil)
	if !almost(r.Utilization(), 0.25, 1e-9) {
		t.Fatalf("utilization %v, want 0.25", r.Utilization())
	}
}

// TestDrainedBottleneckTerminates: three heavy flows saturate a small
// bus, and rounding leaves the bus a weight of 1.8e-12, above fix's
// 1e-12 clamp, once all three are fixed; a fourth flow in the component
// is still unfixed. The filling must drop the drained bus instead of
// picking it again forever, on every fill path and in the reference
// solver (armed as the oracle), and give the fourth flow what the
// shared link leaves.
func TestDrainedBottleneckTerminates(t *testing.T) {
	eachFillPath(func(path string) {
		done := make(chan *Flow, 1)
		go func() {
			k := sim.NewKernel(1)
			m := NewModel(k)
			m.differential = true
			bus := m.NewResource("bus", 3)
			link := m.NewResource("link", 100)
			last := m.Start(FlowSpec{Name: "g", Work: 1e6, Uses: []Use{{link, 1}}})
			m.Start(FlowSpec{Name: "f1", Work: 1e6, Priority: 1.5, Uses: []Use{{bus, 7848.7}, {link, 1}}})
			m.Start(FlowSpec{Name: "f2", Work: 1e6, Priority: 0.5, Uses: []Use{{bus, 5250.2}}})
			m.Start(FlowSpec{Name: "f3", Work: 1e6, Priority: 3, Uses: []Use{{bus, 4416.5}}})
			done <- last
		}()
		select {
		case g := <-done:
			if r := g.Rate(); r < 99 || r > 100 {
				t.Fatalf("%s: the link's other flow runs at %v, want what f1 leaves of 100", path, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the filling did not end", path)
		}
	})
}

// TestNeverBindsTie: a link whose key ties the smallest normalised cap
// is picked by the scan (a cap round needs the cap strictly below every
// key), so the heap must rank it, not leave it out as one that never
// binds. Link l1 carries one flow at capacity equal to its cap; link l2
// one flow whose weighted cap rounds to one ulp below the capacity,
// while the key still rounds to the cap. Each tie decides whether the
// link's flow is fixed in a bottleneck round of its own or with the cap
// round, and so the order of the subtractions on the shared bus, which
// shows in the last bits of the uncapped flow's rate.
func TestNeverBindsTie(t *testing.T) {
	defer func() { onFillOrdered = nil }()
	eachFillPath(func(path string) {
		k := sim.NewKernel(1)
		m := NewModel(k)
		m.differential = true
		l1 := m.NewResource("l1", 3)
		l2 := m.NewResource("l2", 0.9) // 0.3·3 rounds to 0.8999999999999999
		bus := m.NewResource("bus", 20)
		m.Start(FlowSpec{Name: "b", Work: 1e6, Cap: 6, Priority: 2, Uses: []Use{{bus, 0.1}}})
		m.Start(FlowSpec{Name: "a1", Work: 1e6, Cap: 3, Uses: []Use{{l1, 1}, {bus, 0.7}}})
		m.Start(FlowSpec{Name: "a2", Work: 1e6, Cap: 3, Uses: []Use{{l2, 0.3}, {bus, 1.3}}})
		left := 0
		onFillOrdered = func(n int) { left += n }
		d := m.Start(FlowSpec{Name: "d", Work: 1e6, Uses: []Use{{bus, 1}}})
		checkDifferential(t, m)
		if strings.HasPrefix(path, "heap") && left != 0 {
			t.Fatalf("%d tied links left out of the heap, want none", left)
		}
		if r := d.Rate(); r != 13.399999999999999 {
			t.Fatalf("%s: uncapped flow at %v, want 13.399999999999999 (the links' flows fixed before b's)", path, r)
		}
	})
}
