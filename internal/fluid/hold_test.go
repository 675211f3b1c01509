package fluid

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Tests of Hold/Release: a held model must end every hold in exactly
// the state the same mutations leave without the hold, bit for bit,
// having solved once.

// twin is one of two models driven through the same mutations: its own
// rng (seeded like its sibling's) picks the mutation parameters, and
// every flow it starts logs its creation index on completion.
type twin struct {
	k     *sim.Kernel
	m     *Model
	rng   *rand.Rand
	res   []*Resource
	flows []*Flow
	ids   map[*Flow]int
	log   []int // creation indices, in completion order
}

func newTwin(seed int64, nRes, nFlows int) *twin {
	k := sim.NewKernel(seed)
	tw := &twin{k: k, m: NewModel(k), rng: rand.New(rand.NewSource(seed)), ids: map[*Flow]int{}}
	tw.m.differential = false
	for i := 0; i < nRes; i++ {
		tw.res = append(tw.res, tw.m.NewResource("r", 1+tw.rng.Float64()*99))
	}
	for i := 0; i < nFlows; i++ {
		tw.start(1e3 + tw.rng.Float64()*1e6)
	}
	return tw
}

// start starts a flow of the given work over a random subset of the
// resources, with random weights, priority and (sometimes) cap.
func (tw *twin) start(work float64) *Flow {
	id := len(tw.flows)
	spec := FlowSpec{
		Name:     "f",
		Work:     work,
		Priority: 0.5 + tw.rng.Float64()*3,
		OnDone:   func() { tw.log = append(tw.log, id) },
	}
	for _, ri := range tw.rng.Perm(len(tw.res))[:1+tw.rng.Intn(min(4, len(tw.res)))] {
		spec.Uses = append(spec.Uses, Use{tw.res[ri], 0.25 + tw.rng.Float64()*3.75})
	}
	if tw.rng.Intn(3) == 0 {
		spec.Cap = 1 + tw.rng.Float64()*50
	}
	f := tw.m.Start(spec)
	tw.ids[f] = id
	tw.flows = append(tw.flows, f)
	return f
}

// apply runs mutation op: 0 start, 1 cancel, 2 set a flow cap, 3 set a
// capacity, 4 start a zero-work flow, 5 let simulated time pass (never
// under a hold).
func (tw *twin) apply(op int) {
	switch op {
	case 0:
		tw.start(1e3 + tw.rng.Float64()*1e6)
	case 1:
		tw.m.Cancel(tw.flows[tw.rng.Intn(len(tw.flows))])
	case 2:
		f := tw.flows[tw.rng.Intn(len(tw.flows))]
		if c := 1 + tw.rng.Float64()*50; !f.finished && len(f.uses) > 0 {
			tw.m.SetCap(f, c)
		}
	case 3:
		tw.m.SetCapacity(tw.res[tw.rng.Intn(len(tw.res))], 1+tw.rng.Float64()*99)
	case 4:
		tw.start(0)
	case 5:
		tw.k.RunUntil(tw.k.Now().Add(sim.Duration(tw.rng.Intn(int(5 * sim.Second)))))
	}
}

// sameState fails unless the two models hold the same flows in the same
// order with bit-equal rates, remaining work and caps, bit-equal
// resource capacities and loads, and the same armed completion instant;
// and unless the same flows completed in the same order.
func sameState(t *testing.T, a, b *twin) {
	t.Helper()
	if len(a.m.flows) != len(b.m.flows) {
		t.Fatalf("%d flows vs %d", len(a.m.flows), len(b.m.flows))
	}
	bits := math.Float64bits
	for i, fa := range a.m.flows {
		fb := b.m.flows[i]
		if a.ids[fa] != b.ids[fb] {
			t.Fatalf("flow order differs at %d: #%d vs #%d", i, a.ids[fa], b.ids[fb])
		}
		if bits(fa.rate) != bits(fb.rate) || bits(fa.remaining) != bits(fb.remaining) || bits(fa.cap) != bits(fb.cap) {
			t.Fatalf("flow #%d: rate %x/%x remaining %x/%x cap %x/%x", a.ids[fa],
				fa.rate, fb.rate, fa.remaining, fb.remaining, fa.cap, fb.cap)
		}
	}
	for i, ra := range a.m.resources {
		rb := b.m.resources[i]
		if bits(ra.load) != bits(rb.load) || bits(ra.capacity) != bits(rb.capacity) {
			t.Fatalf("resource %d: load %x/%x capacity %x/%x", i, ra.load, rb.load, ra.capacity, rb.capacity)
		}
	}
	wa, oka := a.m.next.When()
	wb, okb := b.m.next.When()
	if wa != wb || oka != okb {
		t.Fatalf("completion timer armed at %v (%v) vs %v (%v)", wa, oka, wb, okb)
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("completions %v vs %v", a.log, b.log)
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("completions %v vs %v", a.log, b.log)
		}
	}
}

// TestHoldCoalescesIntoOneSolve: capacity, cap, start and cancel
// mutations under one hold cost one solve, and leave the model exactly
// where the same mutations leave it without the hold.
func TestHoldCoalescesIntoOneSolve(t *testing.T) {
	mutations := func(tw *twin) {
		tw.m.SetCapacity(tw.res[0], 7)
		tw.m.SetCap(tw.flows[1], 3)
		f := tw.m.Start(FlowSpec{Name: "new", Work: 5e4, Uses: []Use{{tw.res[0], 1}, {tw.res[2], 2}}})
		tw.ids[f] = len(tw.flows)
		tw.flows = append(tw.flows, f)
		tw.m.Cancel(tw.flows[4])
		tw.m.SetCapacity(tw.res[2], 40)
		tw.m.SetCap(f, 9)
		tw.m.Cancel(tw.flows[0])
	}
	seq, held := newTwin(3, 6, 12), newTwin(3, 6, 12)
	for _, tw := range []*twin{seq, held} {
		tw.k.RunUntil(sim.Time(sim.Millisecond)) // some progress, no completion
	}
	before := held.m.Solves()
	mutations(seq)

	held.m.Hold()
	held.m.Hold() // nested: only the outermost Release solves
	mutations(held)
	held.m.Release()
	if got := held.m.Solves(); got != before {
		t.Fatalf("%d solves before the outermost Release, want 0", got-before)
	}
	held.m.Release()
	if got := held.m.Solves(); got != before+1 {
		t.Fatalf("hold cost %d solves, want 1", got-before)
	}
	if seq.m.Solves() < before+5 {
		t.Fatalf("sequential mutations cost only %d solves", seq.m.Solves()-before)
	}
	sameState(t, seq, held)
	checkDifferential(t, held.m)
}

// TestHoldReadSeesSequentialValue: a rate, load or remaining-work read
// inside a hold runs the pending solve first and returns what the read
// returns without the hold; mutations after it are held again.
func TestHoldReadSeesSequentialValue(t *testing.T) {
	seq, held := newTwin(5, 4, 8), newTwin(5, 4, 8)
	for _, tw := range []*twin{seq, held} {
		tw.k.RunUntil(sim.Time(sim.Second))
	}
	before := held.m.Solves()
	held.m.Hold()
	for _, tw := range []*twin{seq, held} {
		tw.m.SetCapacity(tw.res[1], 3)
		tw.m.SetCap(tw.flows[2], 1)
	}
	bits := math.Float64bits
	if a, b := seq.flows[2].Rate(), held.flows[2].Rate(); bits(a) != bits(b) {
		t.Fatalf("Rate under hold %x, want %x", b, a)
	}
	if a, b := seq.res[1].Utilization(), held.res[1].Utilization(); bits(a) != bits(b) {
		t.Fatalf("Utilization under hold %x, want %x", b, a)
	}
	if a, b := seq.flows[3].Remaining(), held.flows[3].Remaining(); bits(a) != bits(b) {
		t.Fatalf("Remaining under hold %x, want %x", b, a)
	}
	if got := held.m.Solves() - before; got != 1 {
		t.Fatalf("reads ran %d solves, want 1 (the pending one)", got)
	}
	seq.apply(0)
	held.apply(0)
	if got := held.m.Solves() - before; got != 1 {
		t.Fatalf("a mutation after the read solved at once under the hold")
	}
	held.m.Release()
	sameState(t, seq, held)
}

// TestHoldDueFlowSolvesAtOnce: at the instant a flow completes, an
// event that runs before the completion timer finds the flow due. A
// held mutation then re-solves at once, as without the hold, so the due
// flow leaves the flow list — and fires — in the same order relative to
// the flows started after it.
func TestHoldDueFlowSolvesAtOnce(t *testing.T) {
	run := func(hold bool) *twin {
		k := sim.NewKernel(1)
		tw := &twin{k: k, m: NewModel(k), rng: rand.New(rand.NewSource(1)), ids: map[*Flow]int{}}
		tw.m.differential = false
		bus := tw.m.NewResource("bus", 100)
		mk := func(work float64) {
			id := len(tw.flows)
			f := tw.m.Start(FlowSpec{Name: "f", Work: work, Uses: []Use{{bus, 1}},
				OnDone: func() { tw.log = append(tw.log, id) }})
			tw.ids[f] = id
			tw.flows = append(tw.flows, f)
		}
		// Scheduled before the flows start, so it runs before the
		// completion timer armed for the same instant.
		k.At(sim.Time(sim.Second), func() {
			if hold {
				tw.m.Hold()
			}
			mk(1e3)
			mk(2e3)
			tw.m.SetCapacity(bus, 80)
			if hold {
				tw.m.Release()
			}
		})
		mk(50)  // due at 1 s: both run at 50/s
		mk(1e4) // long
		k.RunUntil(sim.Time(sim.Second))
		return tw
	}
	seq, held := run(false), run(true)
	if len(seq.log) != 1 || seq.log[0] != 0 {
		t.Fatalf("sequential run completed %v, want [0]", seq.log)
	}
	sameState(t, seq, held)
}

// TestHoldNearlyDoneFlowSolvesAtOnce: the stream census step of a slice
// boundary raises a controller's capacity and lowers it again at one
// instant. Sequentially, the solve in between raises a flow's rate
// enough to make its last 1.05e-10 s of work due (under completeEps at
// the raised rate), so it completes at that instant; a hold that
// skipped that solve would let it finish a nanosecond later. A flow
// within settleEps of its end therefore keeps held mutations solving at
// once.
func TestHoldNearlyDoneFlowSolvesAtOnce(t *testing.T) {
	type completion struct {
		id int
		at sim.Time
	}
	run := func(hold bool) []completion {
		k := sim.NewKernel(1)
		m := NewModel(k)
		m.differential = false
		bus := m.NewResource("ctrl", 100)
		var log []completion
		for id, work := range []float64{50 * (1 + 1.05e-10), 1e4} {
			id := id
			m.Start(FlowSpec{Name: "stream", Work: work, Uses: []Use{{bus, 1}},
				OnDone: func() { log = append(log, completion{id, k.Now()}) }})
		}
		k.At(sim.Time(sim.Second), func() {
			if hold {
				m.Hold()
			}
			m.SetCapacity(bus, 110) // removeStream
			m.SetCapacity(bus, 100) // addStream
			if hold {
				m.Release()
			}
		})
		k.RunUntil(sim.Time(sim.Second + 10))
		return log
	}
	seq, held := run(false), run(true)
	if len(seq) != 1 || seq[0] != (completion{0, sim.Time(sim.Second)}) {
		t.Fatalf("sequential run completed %v, want flow 0 at 1 s", seq)
	}
	if !reflect.DeepEqual(seq, held) {
		t.Fatalf("held run completed %v, sequential %v", held, seq)
	}
}

// TestHoldZeroWorkFlowCompletesAtOnce: a zero-work flow started under a
// hold is collected at once, as without it, before the flows started
// after it can be swapped into its slot.
func TestHoldZeroWorkFlowCompletesAtOnce(t *testing.T) {
	seq, held := newTwin(9, 3, 5), newTwin(9, 3, 5)
	held.m.Hold()
	for _, tw := range []*twin{seq, held} {
		tw.apply(4)
		tw.apply(0)
		tw.apply(0)
		tw.apply(3)
	}
	held.m.Release()
	seq.k.RunUntil(seq.k.Now())
	held.k.RunUntil(held.k.Now())
	if len(seq.log) != 1 {
		t.Fatalf("zero-work flow did not complete at once: %v", seq.log)
	}
	sameState(t, seq, held)
}

// TestHoldLeakPanics: simulated time passing under a hold means a hold
// leaked across a blocking call; the completion timer refuses to fire.
func TestHoldLeakPanics(t *testing.T) {
	tw := newTwin(2, 2, 3)
	tw.m.Hold()
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "held") {
			t.Fatalf("recovered %v, want the leaked-hold panic", r)
		}
	}()
	tw.k.Run()
	t.Fatal("completion timer fired under a hold without panicking")
}

// TestReleaseWithoutHoldPanics guards the hold count.
func TestReleaseWithoutHoldPanics(t *testing.T) {
	m := NewModel(sim.NewKernel(1))
	defer func() {
		if recover() == nil {
			t.Fatal("unbalanced Release accepted")
		}
	}()
	m.Release()
}

// TestUseHoldsOff: with holds off every mutation solves at once.
func TestUseHoldsOff(t *testing.T) {
	tw := newTwin(4, 3, 4)
	tw.m.UseHolds(false)
	before := tw.m.Solves()
	tw.m.Hold()
	tw.apply(0)
	tw.apply(3)
	tw.m.Release()
	if got := tw.m.Solves() - before; got != 2 {
		t.Fatalf("%d solves, want 2 (one per mutation)", got)
	}
}
