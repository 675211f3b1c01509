package fluid

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Tests of reusing recorded solves: a start that writes back a recorded
// solve, and a removal that undoes a start, must leave the model bit for
// bit where the full re-solve leaves it.

// withReuse runs fn with solve reuse on or off.
func withReuse(on bool, fn func()) {
	saved := reuseSolves
	defer func() { reuseSolves = saved }()
	reuseSolves = on
	fn()
}

// reuseWorld is one side of TestReuseTwinStorm: long flows on a few
// shared resources, and a handful of transient flow shapes — a
// ping-pong's message flows — that start over that background and leave
// it again and again.
type reuseWorld struct {
	*twin
	shapes []FlowSpec
	live   []*Flow // transients in start order, finished ones included
}

func newReuseWorld(seed int64) *reuseWorld {
	ctl := rand.New(rand.NewSource(seed))
	w := &reuseWorld{twin: newTwin(seed, 2+ctl.Intn(4), ctl.Intn(6))}
	w.loopEnd = 4
	for n := 2 + w.rng.Intn(3); n > 0; n-- {
		spec := FlowSpec{Name: "msg", Work: 0.5 + w.rng.Float64()*5, Priority: 0.5 + w.rng.Float64()*3}
		for _, ri := range w.rng.Perm(len(w.res))[:1+w.rng.Intn(min(3, len(w.res)))] {
			spec.Uses = append(spec.Uses, Use{w.res[ri], 0.25 + w.rng.Float64()*1.75})
		}
		if w.rng.Intn(3) == 0 {
			spec.Cap = 1 + w.rng.Float64()*40
		}
		w.shapes = append(w.shapes, spec)
	}
	return w
}

// transient starts shape i with the given work (the shape's own when
// zero). Its OnDone logs it, and now and then starts another transient
// at the completion instant, as a ping-pong's next message does.
func (w *reuseWorld) transient(i int, work float64) *Flow {
	id := len(w.flows)
	spec := w.shapes[i]
	if work > 0 {
		spec.Work = work
	}
	spec.OnDone = func() {
		w.log = append(w.log, id)
		if w.rng.Intn(2) == 0 {
			w.transient(w.rng.Intn(len(w.shapes)), 0)
		}
	}
	reuses := w.m.Reuses()
	f := w.m.Start(spec)
	w.hits += w.m.Reuses() - reuses
	w.ids[f] = id
	w.flows = append(w.flows, f)
	w.live = append(w.live, f)
	return f
}

// apply runs mutation op of the reuse storm: 0-3 start a transient, 4-5
// cancel the latest transient, 6 cancel any flow, 7 set a capacity to
// one of two values, 8 set a cap to one of two values, 9 let time pass,
// 10 run one event, 11 start a group of loops of a transient's shape,
// whose slices park and are renewed, 12 start a transient due in 5 ns behind a start or cancel
// scheduled for that instant, which then meets a flow due but not yet
// collected, 13 a few of these mutations under one hold.
func (w *reuseWorld) apply(op int) {
	rng := w.rng
	switch op {
	case 0, 1, 2, 3:
		w.transient(rng.Intn(len(w.shapes)), 0)
	case 4, 5:
		if n := len(w.live); n > 0 {
			w.m.Cancel(w.live[n-1])
		}
	case 6:
		if len(w.flows) > 0 {
			if f := w.flows[rng.Intn(len(w.flows))]; f != nil {
				w.m.Cancel(f)
			}
		}
	case 7:
		w.m.SetCapacity(w.res[rng.Intn(len(w.res))], float64(20+60*rng.Intn(2)))
	case 8:
		if len(w.flows) > 0 {
			if f := w.flows[rng.Intn(len(w.flows))]; f != nil && !f.finished && len(f.uses) > 0 {
				w.m.SetCap(f, float64(5+20*rng.Intn(2)))
			}
		}
	case 9:
		w.k.RunUntil(w.k.Now().Add(sim.Duration(rng.Int63n(int64(300 * sim.Millisecond)))))
	case 10:
		w.k.Step()
	case 11:
		spec := w.shapes[rng.Intn(len(w.shapes))]
		spec.Name, spec.Renewable = "slice", true
		for n := 1 + rng.Intn(3); n > 0; n-- {
			w.loop(spec)
		}
	case 12:
		w.k.At(w.k.Now().Add(5), func() { w.apply(rng.Intn(7)) })
		f := w.transient(rng.Intn(len(w.shapes)), 1e-3)
		if f.rate > 0 && !f.finished {
			// Make it due 4.5 ns from now at the rate it got.
			w.m.Cancel(f)
			w.transient(rng.Intn(len(w.shapes)), f.rate*4.5e-9)
		}
	case 13:
		w.m.Hold()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			w.apply([]int{0, 4, 7, 8}[rng.Intn(4)])
		}
		w.m.Release()
	}
}

// TestReuseTwinStorm storms worlds in which transient flows start and
// leave over steady ones, beside capacity and cap changes, parked and
// renewed loop slices, holds, and flows due at the instant of a start or
// cancel, on twins that take the same mutations: one reusing recorded
// solves, one with reuse forced off. After every mutation the twins must
// agree bit for bit on every rate, remaining work, load and the armed
// completion instant, and on the OnDone order (sameState); the reusing
// twin must match the reference solver (its oracle is armed too) and an
// independent scan of its due flows and next completion. On every fill
// path, starts must hit the memo and removals undo starts hundreds of
// times each, or the storm proves nothing.
func TestReuseTwinStorm(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			var hits, undos uint64
			var renewals int
			for seed := int64(0); seed < 80; seed++ {
				ctl := rand.New(rand.NewSource(seed + 1<<40))
				on, off := newReuseWorld(seed), newReuseWorld(seed)
				on.m.differential = true
				for step := 0; step < 120; step++ {
					op := ctl.Intn(14)
					withReuse(true, func() { on.apply(op) })
					withReuse(false, func() { off.apply(op) })
					sameState(t, off.twin, on.twin)
					if !on.m.parkedNow() {
						checkDifferential(t, on.m)
						checkSettled(t, on.m)
					}
				}
				withReuse(true, func() { on.k.RunUntil(on.k.Now().Add(60 * sim.Second)) })
				withReuse(false, func() { off.k.RunUntil(off.k.Now().Add(60 * sim.Second)) })
				sameState(t, off.twin, on.twin)
				if off.m.Reuses() != 0 {
					t.Fatalf("seed %d: %d reuses with reuse forced off", seed, off.m.Reuses())
				}
				hits += on.hits
				undos += on.m.Reuses() - on.hits
				renewals += on.renewals
			}
			t.Logf("%d start hits, %d undos, %d renewals", hits, undos, renewals)
			if hits < 300 || undos < 300 || renewals < 300 {
				t.Fatalf("%d start hits, %d undos and %d renewals, want at least 300 each", hits, undos, renewals)
			}
		})
	})
}

// TestReuseHitAndUndo: over a saturated resource, a transient flow's
// first start solves and records; its cancel restores the rates before
// it without a solve, and its next start, and that one's completion,
// solve nothing either. Every step matches the reference solver.
func TestReuseHitAndUndo(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	bus := m.NewResource("bus", 100)
	bg := m.Start(FlowSpec{Name: "bg", Work: 1e6, Uses: []Use{{bus, 1}}})
	spec := FlowSpec{Name: "msg", Work: 10, Uses: []Use{{bus, 1}}}
	solves := m.Solves()

	msg := m.Start(spec)
	if m.Solves() != solves+1 || m.Reuses() != 0 || bg.Rate() != 50 || msg.Rate() != 50 {
		t.Fatalf("first start: %d solves, %d reuses, rates %v/%v; want 1, 0, 50/50",
			m.Solves()-solves, m.Reuses(), bg.Rate(), msg.Rate())
	}
	m.Cancel(msg)
	m.Recycle(msg)
	if m.Solves() != solves+1 || m.Reuses() != 1 || bg.Rate() != 100 || bus.load != 100 {
		t.Fatalf("cancel: %d solves, %d reuses, rate %v, load %v; want 1, 1, 100, 100",
			m.Solves()-solves, m.Reuses(), bg.Rate(), bus.load)
	}
	checkDifferential(t, m)

	msg = m.Start(spec)
	if m.Solves() != solves+1 || m.Reuses() != 2 || bg.Rate() != 50 || msg.Rate() != 50 || bus.load != 100 {
		t.Fatalf("second start: %d solves, %d reuses, rates %v/%v; want 1, 2, 50/50",
			m.Solves()-solves, m.Reuses(), bg.Rate(), msg.Rate())
	}
	checkDifferential(t, m)
	k.RunUntil(k.Now().Add(sim.Second)) // msg completes at 0.2 s
	if !msg.Finished() || m.Solves() != solves+1 || m.Reuses() != 3 || bg.Rate() != 100 {
		t.Fatalf("completion: finished %v, %d solves, %d reuses, rate %v; want true, 1, 3, 100",
			msg.Finished(), m.Solves()-solves, m.Reuses(), bg.Rate())
	}
	checkDifferential(t, m)
	checkSettled(t, m)
}

// TestReuseAcrossReset: a reset model, or a recycled Flow struct, never
// meets a stale entry: after Reset the same start re-solves, and a flow
// a start outside the memo reincarnated from a recorded flow's struct is
// removed by a solve.
func TestReuseAcrossReset(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	bus := m.NewResource("bus", 100)
	spec := FlowSpec{Name: "msg", Work: 10, Uses: []Use{{bus, 1}}}
	bg := m.Start(FlowSpec{Name: "bg", Work: 1e6, Uses: []Use{{bus, 1}}})
	msg := m.Start(spec) // recorded
	m.Cancel(msg)        // undone
	m.Recycle(msg)
	m.Cancel(bg)
	m.Recycle(bg)
	m.SetCapacity(bus, 60)

	// The model returns to an empty flow list, with another capacity
	// than the one recorded; the same starts must solve afresh.
	m.Reset()
	bg = m.Start(FlowSpec{Name: "bg", Work: 1e6, Uses: []Use{{bus, 1}}})
	msg = m.Start(spec)
	if m.Reuses() != 0 || m.Solves() != 1 || bg.Rate() != 30 || msg.Rate() != 30 {
		t.Fatalf("after Reset: %d reuses, %d solves, rates %v/%v; want 0, 1, 30/30",
			m.Reuses(), m.Solves(), bg.Rate(), msg.Rate())
	}
	checkDifferential(t, m)

	// msg's struct, recycled, comes back through a held start, which the
	// memo does not see: removing it must solve.
	m.Cancel(msg)
	m.Recycle(msg)
	m.Hold()
	again := m.Start(spec)
	m.Release()
	if again != msg {
		t.Fatal("the start did not reincarnate the recycled struct")
	}
	solves := m.Solves()
	m.Cancel(again)
	if m.Solves() != solves+1 || bg.Rate() != 60 {
		t.Fatalf("removing the reincarnated flow: %d solves, rate %v; want 1, 60", m.Solves()-solves, bg.Rate())
	}
	checkDifferential(t, m)
}

// TestUndoNeedsTail: undo removes only the tail flow. A flow whose
// recorded version is the model's but that is not the tail — a state no
// sequence of mutations reaches, forged here — must be removed by a
// solve.
func TestUndoNeedsTail(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	bus := m.NewResource("bus", 100)
	m.Start(FlowSpec{Name: "bg", Work: 1e6, Uses: []Use{{bus, 1}}})
	first := m.Start(FlowSpec{Name: "first", Work: 10, Uses: []Use{{bus, 1}}})
	second := m.Start(FlowSpec{Name: "second", Work: 1e6, Cap: 40, Uses: []Use{{bus, 1}}})
	// Forge: first's entry claims the current version.
	m.memo.recorded(first.version).post = m.version
	first.version = m.version
	solves := m.Solves()
	m.Cancel(first)
	if m.Solves() != solves+1 || m.Reuses() != 0 {
		t.Fatalf("cancelling a flow that is not the tail: %d solves, %d reuses; want 1, 0", m.Solves()-solves, m.Reuses())
	}
	if second.Rate() != 40 {
		t.Fatalf("the cap-bound flow runs at %v, want its cap 40", second.Rate())
	}
	checkDifferential(t, m)
}

// TestReuseNeedsSettled: a start at the instant a flow ran out of work,
// before the completion timer collects it, must solve. The recorded
// solve counts the spent flow as running; a solve leaves it out, and so
// finds a second flow, a tenth of a nanosecond from its end, due at
// once: both complete in flow-list order. Writing the record back would
// collect the spent flow alone and the second one a solve later, so
// their OnDone events would run in the other order.
func TestReuseNeedsSettled(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	bus := m.NewResource("bus", 3)
	var order []string
	start := func(name string, work float64) *Flow {
		return m.Start(FlowSpec{Name: name, Work: work, Uses: []Use{{bus, 1}}, OnDone: func() { order = append(order, name) }})
	}
	start("bg", 1e6)
	start("near", 1e-6+9e-11) // at rate 1: 0.09 ns after spent
	start("spent", 1e-6)      // at rate 1: out of work at 1000 ns
	msg := FlowSpec{Name: "msg", Work: 1, Uses: []Use{{bus, 1}}}
	// Scheduled before the cancel below re-arms the completion timer, so
	// it runs first at 1000 ns.
	k.At(sim.Time(1000), func() { m.Start(msg) })
	m.Cancel(m.Start(msg)) // recorded, then undone
	if m.Reuses() != 1 {
		t.Fatalf("%d reuses before the instant, want 1 (the undo)", m.Reuses())
	}
	k.RunUntil(sim.Time(2000))
	if m.Reuses() != 1 {
		t.Fatalf("%d reuses, want 1: the start beside a spent flow must solve", m.Reuses())
	}
	if len(order) != 2 || order[0] != "near" || order[1] != "spent" {
		t.Fatalf("completions %v, want [near spent]", order)
	}
	checkDifferential(t, m)
}

// TestMemoDropsDueStart: a start whose own solve leaves a flow due
// records nothing. The completion removes a flow at once, so the state
// the entry would name never stands, and the rates after the completion
// are another state's.
func TestMemoDropsDueStart(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	bus := m.NewResource("bus", 100)
	m.Start(FlowSpec{Name: "bg", Work: 1e6, Uses: []Use{{bus, 1}}})
	pre := m.version
	f := m.Start(FlowSpec{Name: "blip", Work: 1e-12, Uses: []Use{{bus, 1}}})
	if !f.Finished() {
		t.Fatal("the blip did not complete at its start")
	}
	for i := range m.memo.ent {
		if e := &m.memo.ent[i]; e.post != 0 && e.pre == pre {
			t.Fatalf("entry %d records the start that completed at once", i)
		}
	}
	if f.version != 0 {
		t.Fatalf("the completed flow claims version %d", f.version)
	}
	checkDifferential(t, m)
}

// TestParkVersion: after the last renewal of a park, a start recorded
// just before the park hits the memo only if the parked slices were the
// tail of the flow list, which the renewals restore. Renewing slices
// from inside the list appends them at its end: another state, which
// must solve.
func TestParkVersion(t *testing.T) {
	for _, tail := range []bool{true, false} {
		tw := newLoopTwin(3, true, tail)
		m := tw.m
		m.differential = true
		msg := FlowSpec{Name: "msg", Work: 1e3, Uses: []Use{{tw.res[0], 1}, {tw.res[1], 1}}}
		m.Cancel(m.Start(msg))
		if m.Reuses() != 1 {
			t.Fatalf("tail %v: %d reuses before the park, want 1 (the undo)", tail, m.Reuses())
		}
		stepUntilParked(t, tw.k, m)
		for m.parkedNow() {
			tw.k.Step() // the loops' OnDone events renew their slices
		}
		if tw.renewals != 3 {
			t.Fatalf("tail %v: %d renewals, want 3", tail, tw.renewals)
		}
		solves := m.Solves()
		m.Start(msg)
		hit, solved := m.Reuses() == 2, m.Solves() != solves
		if hit != tail || solved == tail {
			t.Fatalf("tail %v: the start after the renewals hit the memo %v, solved %v; want %v, %v", tail, hit, solved, tail, !tail)
		}
		checkDifferential(t, m)
	}
}
