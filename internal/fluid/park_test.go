package fluid

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Tests of parking and Renew: a model that parks the loop slices ending
// at a completion must end up, once their owners have renewed them or
// the model has materialized them, in exactly the state of its plain
// twin, which removes them, re-solves, and starts the next slices
// afresh.

// loop starts a loop of identical slices on tw: a flow of spec whose
// OnDone logs the loop's slot and starts the next slice — renewed when
// still parked, else started afresh — unless the loop ends
// (see twin.loopEnd). Like a machine loop, the owner renews only while
// the flow's cap is still the spec's, since a renewal keeps the cap.
func (tw *twin) loop(spec FlowSpec) {
	id := len(tw.flows)
	tw.flows = append(tw.flows, nil)
	tw.slice(spec, id)
}

func (tw *twin) slice(spec FlowSpec, id int) {
	var f *Flow
	s := spec
	s.OnDone = func() {
		tw.log = append(tw.log, id)
		if tw.loopEnd > 0 && tw.rng.Intn(tw.loopEnd) == 0 {
			// The loop ends. Its owner still acts at the completion — here
			// it reads the model, which materializes a parked slice.
			f.Remaining()
			return
		}
		if f.cap == spec.Cap && tw.m.Renew(f) {
			tw.renewals++
			return
		}
		tw.slice(spec, id)
	}
	f = tw.m.Start(s)
	tw.ids[f] = id
	tw.flows[id] = f
}

// loopGroup starts n loops of one random spec on tw, whose slices end
// together like the STREAM cores of a figure.
func (tw *twin) loopGroup(n int, renewable bool) {
	spec := FlowSpec{
		Name:      "slice",
		Work:      1e2 + tw.rng.Float64()*1e5,
		Priority:  0.5 + tw.rng.Float64()*3,
		Renewable: renewable,
	}
	for _, ri := range tw.rng.Perm(len(tw.res))[:1+tw.rng.Intn(min(3, len(tw.res)))] {
		spec.Uses = append(spec.Uses, Use{tw.res[ri], 0.25 + tw.rng.Float64()*3.75})
	}
	if tw.rng.Intn(3) == 0 {
		spec.Cap = 1 + tw.rng.Float64()*50
	}
	for ; n > 0; n-- {
		tw.loop(spec)
	}
}

// parkedNow reports whether the model holds parked flows.
func (m *Model) parkedNow() bool { return len(m.parked) > 0 }

// stepUntilParked steps k until a completion parks flows of m and
// returns the number of events run.
func stepUntilParked(t *testing.T, k *sim.Kernel, m *Model) int {
	t.Helper()
	steps := 0
	for !m.parkedNow() {
		if !k.Step() {
			t.Fatal("no completion parked a flow")
		}
		steps++
	}
	return steps
}

// newLoopTwin builds a twin with six background flows, then three loops
// on resources 0 and 1 whose first slices end together before any other
// flow does (flows 6, 7 and 8) — the tail of the flow list unless tail
// is false, which starts one more flow on resource 1 after them.
func newLoopTwin(seed int64, renewable, tail bool) *twin {
	tw := newTwin(seed, 4, 6)
	spec := FlowSpec{Name: "slice", Work: 50, Uses: []Use{{tw.res[0], 1}, {tw.res[1], 0.5}}, Renewable: renewable}
	for i := 0; i < 3; i++ {
		tw.loop(spec)
	}
	if !tail {
		f := tw.m.Start(FlowSpec{Name: "after", Work: 1e6, Priority: 2.5, Uses: []Use{{tw.res[1], 1.5}}})
		tw.ids[f] = len(tw.flows)
		tw.flows = append(tw.flows, f)
	}
	return tw
}

// atCompletion returns the plain and parking twins of newLoopTwin just
// after the first slices end: the parking twin's completion has parked
// them, the plain twin's has removed them and re-solved, and no owner
// has acted yet.
func atCompletion(t *testing.T, seed int64, tail bool) (plain, parked *twin) {
	t.Helper()
	plain, parked = newLoopTwin(seed, false, tail), newLoopTwin(seed, true, tail)
	for n := stepUntilParked(t, parked.k, parked.m); n > 0; n-- {
		plain.k.Step()
	}
	if got := parked.m.parked; len(got) != 3 || got[0] != parked.flows[6] || got[2] != parked.flows[8] || parked.m.parkTail != tail {
		t.Fatal("the first completion did not park the three slices")
	}
	if len(plain.m.flows) != len(parked.m.flows) {
		t.Fatalf("the plain completion left %d flows, the park %d", len(plain.m.flows), len(parked.m.flows))
	}
	return plain, parked
}

// TestParkMaterializesOnEachTrigger: a read, a mutation, a Recycle, a
// flushing Release or a same-instant timer firing before the owners of
// the parked slices act materializes them. The model — flow order,
// rates, remaining work, loads, armed instant and completions — is then
// bit for bit where the plain completion left its twin, and the loops
// run on identically.
func TestParkMaterializesOnEachTrigger(t *testing.T) {
	triggers := []struct {
		name string
		fn   func(tw *twin)
	}{
		{"utilization", func(tw *twin) { tw.res[1].Utilization() }},
		{"rate", func(tw *twin) { tw.flows[2].Rate() }},
		{"remaining", func(tw *twin) { tw.flows[7].Remaining() }},
		{"start", func(tw *twin) { tw.apply(0) }},
		{"cancel", func(tw *twin) { tw.m.Cancel(tw.flows[3]) }},
		{"setcap", func(tw *twin) { tw.m.SetCap(tw.flows[4], 2) }},
		{"setcapacity", func(tw *twin) { tw.m.SetCapacity(tw.res[0], 30) }},
		{"held", func(tw *twin) { tw.m.Hold(); tw.apply(0); tw.apply(3); tw.m.Release() }},
		{"release", func(tw *twin) { tw.m.Hold(); tw.m.Release() }},
		{"recycle", func(tw *twin) { tw.m.Recycle(tw.flows[7]) }},
		{"timer", func(tw *twin) { tw.m.complete() }},
	}
	eachFillPath(func(path string) {
		for _, tr := range triggers {
			for _, tail := range []bool{true, false} {
				testTrigger(t, path, tr.name, tr.fn, tail)
			}
		}
	})
}

func testTrigger(t *testing.T, path, name string, trigger func(tw *twin), tail bool) {
	t.Helper()
	plain, parked := atCompletion(t, 11, tail)
	trigger(plain)
	trigger(parked)
	if parked.m.parkedNow() {
		t.Fatalf("%s/%s/tail=%v: flows still parked after the trigger", path, name, tail)
	}
	sameState(t, plain, parked)
	end := parked.k.Now().Add(500 * sim.Second)
	plain.k.RunUntil(end)
	parked.k.RunUntil(end)
	sameState(t, plain, parked)
	if parked.renewals == 0 {
		t.Fatalf("%s/%s/tail=%v: the loops never renewed", path, name, tail)
	}
}

// TestParkMaterializeKeepsTimerPlace: materializing re-arms the
// completion timer in the place in the event order that the
// completion's own arming took: after an event scheduled before the
// completion for the same instant, before one scheduled since — as
// after the plain completion.
func TestParkMaterializeKeepsTimerPlace(t *testing.T) {
	// A slice and a long flow halve a bus; the slice ends at 2 s, and the
	// long flow, alone from then, at 11 s.
	observe := func(renewable bool) (before, after bool) {
		k := sim.NewKernel(1)
		m := NewModel(k)
		bus := m.NewResource("bus", 10)
		long := m.Start(FlowSpec{Name: "long", Work: 100, Uses: []Use{{bus, 1}}})
		m.Start(FlowSpec{Name: "slice", Work: 10, Uses: []Use{{bus, 1}}, Renewable: renewable})
		end := sim.Time(11 * sim.Second)
		k.At(end, func() { before = long.Finished() })
		k.RunUntil(sim.Time(2 * sim.Second))
		if m.parkedNow() != renewable {
			t.Fatalf("renewable %v, parked %v", renewable, m.parkedNow())
		}
		k.At(end, func() { after = long.Finished() })
		bus.Utilization() // materializes the slice
		k.Run()
		return before, after
	}
	for _, renewable := range []bool{false, true} {
		if before, after := observe(renewable); before || !after {
			t.Fatalf("renewable %v: the long flow was finished for the earlier event %v, the later %v; want false, true",
				renewable, before, after)
		}
	}
}

// TestParkRefusesSubNanosecondSlice: a slice whose next run could end
// within settleEps at its ceiling rate is not parked — a solve that a
// renewal skips could have collected it at once — so it completes like
// a plain flow.
func TestParkRefusesSubNanosecondSlice(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	bus := m.NewResource("bus", 1)
	m.Start(FlowSpec{Name: "long", Work: 100, Uses: []Use{{bus, 1}}})
	f := m.Start(FlowSpec{Name: "slice", Work: 6e-10, Uses: []Use{{bus, 1}}, Renewable: true, OnDone: func() {}})
	k.RunUntil(sim.Time(10))
	if !f.Finished() || f.Parked() || m.FlowCount() != 1 {
		t.Fatalf("slice finished %v, parked %v, %d flows; want a plain completion", f.Finished(), f.Parked(), m.FlowCount())
	}
}

// TestRenewSolves: renewing every parked slice leaves the model where
// restarting them leaves the plain twin, whose completion and three
// restarts each solve. Renewing a tail costs no solve; renewing slices
// that another flow followed costs one, at the last renewal.
func TestRenewSolves(t *testing.T) {
	eachFillPath(func(path string) {
		for tail, want := range map[bool]uint64{true: 0, false: 1} {
			plain, parked := atCompletion(t, 5, tail)
			plain.m.differential, parked.m.differential = true, true
			now := parked.k.Now()
			before, plainBefore := parked.m.Solves(), plain.m.Solves()
			plain.k.RunUntil(now)
			parked.k.RunUntil(now)
			if got := parked.m.Solves() - before; got != want {
				t.Fatalf("%s/tail=%v: renewing ran %d solves, want %d", path, tail, got, want)
			}
			if parked.renewals != 3 || parked.m.parkedNow() {
				t.Fatalf("%s/tail=%v: %d renewals, parked %v; want 3 and none left", path, tail, parked.renewals, parked.m.parkedNow())
			}
			if got := plain.m.Solves() - plainBefore; got != 3 {
				t.Fatalf("%s/tail=%v: the plain twin's restarts ran %d solves, want 3", path, tail, got)
			}
			sameState(t, plain, parked)
			checkDifferential(t, parked.m)
		}
	})
}

// TestRenewTakesTimerPlace: a renewal re-arms the completion timer from
// a new place in the event order even when its instant does not move,
// as the restart's solve does, so an event scheduled between the
// completion and the renewal for that instant runs first.
func TestRenewTakesTimerPlace(t *testing.T) {
	// A slice and a plain flow halve a bus. The slice ends at 2 s; the
	// plain flow then has 0.4 s left at its rate, which the renewed slice
	// leaves it.
	plainFinishedFirst := func(renewable bool) bool {
		k := sim.NewKernel(1)
		m := NewModel(k)
		bus := m.NewResource("bus", 10)
		g := m.Start(FlowSpec{Name: "plain", Work: 12, Uses: []Use{{bus, 1}}})
		at := sim.Time(2400 * sim.Millisecond)
		var finished bool
		spec := FlowSpec{Name: "slice", Work: 10, Uses: []Use{{bus, 1}}, Renewable: renewable}
		var f *Flow
		spec.OnDone = func() {
			k.At(at, func() { finished = g.Finished() })
			spec.OnDone = nil
			if !m.Renew(f) {
				m.Start(spec)
			}
			if when, _ := m.next.When(); when != at {
				t.Fatalf("renewable %v: timer armed at %v, want %v", renewable, when, at)
			}
		}
		f = m.Start(spec)
		k.RunUntil(at)
		return finished
	}
	if plainFinishedFirst(false) {
		t.Fatal("plain model: the completion ran before an event scheduled ahead of its arming")
	}
	if plainFinishedFirst(true) {
		t.Fatal("parking model: the renewal left the completion timer ahead of a later event")
	}
}

// TestRenewOnlyInParkOrder: Renew refuses a flow that was never parked,
// a parked flow out of park order, and a materialized one.
func TestRenewOnlyInParkOrder(t *testing.T) {
	_, tw := atCompletion(t, 5, true)
	if tw.m.Renew(tw.flows[0]) {
		t.Fatal("renewed a flow that was never parked")
	}
	if tw.m.Renew(tw.flows[8]) {
		t.Fatal("renewed the last parked flow before the first")
	}
	if !tw.m.Renew(tw.flows[6]) {
		t.Fatal("refused the first parked flow")
	}
	tw.flows[0].Rate() // materializes the other two
	if tw.m.Renew(tw.flows[7]) || tw.flows[7].Parked() || !tw.flows[7].Finished() {
		t.Fatal("renewed a materialized flow")
	}
}

// TestStartAndRecycleClearRenewable: a flow struct recycled from a
// renewable flow and reused by a plain Start is not renewable, so its
// completion removes it.
func TestStartAndRecycleClearRenewable(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	bus := m.NewResource("bus", 10)
	f := m.Start(FlowSpec{Name: "slice", Work: 10, Uses: []Use{{bus, 1}}, Renewable: true, OnDone: func() {}})
	stepUntilParked(t, k, m)
	m.Recycle(f)
	if f.renewable || f.Parked() || m.FlowCount() != 0 {
		t.Fatalf("recycled flow renewable %v, parked %v, %d flows", f.renewable, f.Parked(), m.FlowCount())
	}
	g := m.Start(FlowSpec{Name: "plain", Work: 10, Uses: []Use{{bus, 1}}, OnDone: func() {}})
	if g != f {
		t.Fatal("Start did not reuse the recycled struct")
	}
	k.Run()
	if g.Parked() || !g.Finished() || m.FlowCount() != 0 {
		t.Fatal("a plain flow on a recycled renewable struct was parked")
	}
}

// TestParkNearlyDoneFlowCompletesAtOnce: eleven loop slices and a plain
// flow share a bus. When the slices end, the plain flow is 1.1 ns from
// its end at its rate — settled, for a hold — but the solve after the
// slices leave gives it twelve times that rate, which makes it due at
// once. Parking the slices would skip that solve and let the flow end
// two nanoseconds later, so a completion does not park while another
// flow is within settleEps of its end at its ceiling rate.
func TestParkNearlyDoneFlowCompletesAtOnce(t *testing.T) {
	run := func(renewable bool) []sim.Time {
		k := sim.NewKernel(1)
		m := NewModel(k)
		bus := m.NewResource("bus", 120)
		var done []sim.Time
		m.Start(FlowSpec{Name: "plain", Work: 10 * (1 + 1.1e-9), Uses: []Use{{bus, 1}},
			OnDone: func() { done = append(done, k.Now()) }})
		for i := 0; i < 11; i++ {
			m.Start(FlowSpec{Name: "slice", Work: 10, Uses: []Use{{bus, 1}}, Renewable: renewable, OnDone: func() {}})
		}
		k.Run()
		return done
	}
	plain, parked := run(false), run(true)
	if len(plain) != 1 || plain[0] != sim.Time(sim.Second) {
		t.Fatalf("plain model completed the flow at %v, want at 1 s", plain)
	}
	if len(parked) != 1 || parked[0] != plain[0] {
		t.Fatalf("parking model completed the flow at %v, plain at %v", parked, plain)
	}
}

// TestParkedAcrossTimePanics: a parked flow whose owner does not act at
// its completion would carry a stale allocation across simulated time;
// the next completion refuses to fire.
func TestParkedAcrossTimePanics(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	bus := m.NewResource("bus", 10)
	m.Start(FlowSpec{Name: "long", Work: 100, Uses: []Use{{bus, 1}}})
	m.Start(FlowSpec{Name: "slice", Work: 10, Uses: []Use{{bus, 1}}, Renewable: true})
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "spanned simulated time") {
			t.Fatalf("recovered %v, want the parked-across-time panic", r)
		}
	}()
	k.Run()
	t.Fatal("a parked flow spanned simulated time without a panic")
}

// TestPropertyParkRenew storms random worlds in which groups of loops
// run beside other flows, through mutations (some under holds), reads,
// single event steps, spans of simulated time and same-instant timer
// firings. A parking model with holds must track its plain twin, which
// neither parks nor holds, bit for bit whenever no flow is parked, on
// every fill path, under the differential oracle.
func TestPropertyParkRenew(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			var parks, tailParks, renewals, materialized int
			for seed := int64(0); seed < 120; seed++ {
				ctl := rand.New(rand.NewSource(seed + 1<<30))
				nRes, nFlows := 1+ctl.Intn(6), ctl.Intn(8)
				plain, parked := newTwin(seed, nRes, nFlows), newTwin(seed, nRes, nFlows)
				parked.m.differential = true
				n := 1 + ctl.Intn(4)
				for _, tw := range []*twin{plain, parked} {
					tw.loopEnd = 6
					tw.loopGroup(n, tw == parked)
				}
				seen := 0
				for step := 0; step < 80; step++ {
					wasParked := parked.m.parkedNow()
					switch op := ctl.Intn(10); {
					case op < 2: // mutations, sometimes held
						hold := ctl.Intn(2) == 0
						if hold {
							parked.m.Hold()
						}
						for n := 1 + ctl.Intn(3); n > 0; n-- {
							op := ctl.Intn(4)
							plain.apply(op)
							parked.apply(op)
						}
						if hold {
							parked.m.Release()
						}
					case op < 3: // a read
						i := ctl.Intn(len(plain.flows))
						a, b := plain.flows[i].Rate(), parked.flows[i].Rate()
						if math.Float64bits(a) != math.Float64bits(b) {
							t.Fatalf("seed %d step %d: rate read %x, plain %x", seed, step, b, a)
						}
					case op < 7: // one event
						plain.k.Step()
						parked.k.Step()
					case op < 8:
						plain.apply(5)
						parked.apply(5)
					case op < 9:
						n := 1 + ctl.Intn(4)
						plain.loopGroup(n, false)
						parked.loopGroup(n, true)
					default:
						plain.m.complete()
						parked.m.complete()
					}
					if parked.m.parkedNow() {
						if !wasParked {
							parks++
							if parked.m.parkTail {
								tailParks++
							}
						}
						continue
					}
					if wasParked && parked.renewals == seen {
						materialized++
					}
					seen = parked.renewals
					sameState(t, plain, parked)
				}
				plain.k.RunUntil(plain.k.Now().Add(sim.Duration(30 * sim.Second)))
				parked.k.RunUntil(parked.k.Now().Add(sim.Duration(30 * sim.Second)))
				sameState(t, plain, parked)
				renewals += parked.renewals
			}
			if tailParks < 50 || parks-tailParks < 50 || renewals < 100 || materialized < 10 {
				t.Fatalf("%d parks (%d of tails), %d renewals, %d materialized by a trigger: the storm barely parks",
					parks, tailParks, renewals, materialized)
			}
		})
	})
}
