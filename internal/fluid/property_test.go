package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Property-based tests for the incremental solver: random topologies
// and flow populations checked against the defining properties of
// weighted max-min fairness, plus differential equality against the
// reference solver. Seeds are fixed, so failures replay exactly.

// randomWorld builds nRes resources and nFlows flows with random
// subsets, weights, priorities and caps on a fresh model.
func randomWorld(rng *rand.Rand, m *Model, nRes, nFlows int) ([]*Resource, []*Flow) {
	res := make([]*Resource, nRes)
	for i := range res {
		res[i] = m.NewResource("r", 1+rng.Float64()*99)
	}
	flows := make([]*Flow, 0, nFlows)
	for i := 0; i < nFlows; i++ {
		flows = append(flows, startRandomFlow(rng, m, res))
	}
	return res, flows
}

// startRandomFlow starts one flow over a random subset of res.
func startRandomFlow(rng *rand.Rand, m *Model, res []*Resource) *Flow {
	spec := FlowSpec{
		Name:     "f",
		Work:     1e3 + rng.Float64()*1e6,
		Priority: 0.5 + rng.Float64()*3,
	}
	n := 1 + rng.Intn(4)
	for _, ri := range rng.Perm(len(res))[:min(n, len(res))] {
		spec.Uses = append(spec.Uses, Use{res[ri], 0.25 + rng.Float64()*3.75})
	}
	if rng.Intn(3) == 0 {
		spec.Cap = 1 + rng.Float64()*50
	}
	return m.Start(spec)
}

// mutate applies one random mutation to the world and reports whether
// it did anything.
func mutate(rng *rand.Rand, k *sim.Kernel, m *Model, res []*Resource, flows *[]*Flow) {
	switch rng.Intn(5) {
	case 0:
		*flows = append(*flows, startRandomFlow(rng, m, res))
	case 1:
		if len(*flows) > 0 {
			m.Cancel((*flows)[rng.Intn(len(*flows))])
		}
	case 2:
		if len(*flows) > 0 {
			f := (*flows)[rng.Intn(len(*flows))]
			if !f.finished && len(f.uses) > 0 {
				m.SetCap(f, 1+rng.Float64()*50)
			}
		}
	case 3:
		m.SetCapacity(res[rng.Intn(len(res))], 1+rng.Float64()*99)
	case 4:
		k.RunUntil(k.Now().Add(sim.Duration(rng.Intn(int(5 * sim.Second)))))
	}
}

// checkMaxMin asserts the two defining invariants of the allocation:
// feasibility (no resource over capacity) and max-min optimality
// (every flow not running at its private cap is bottlenecked on a
// saturated resource — nobody's rate can grow without shrinking a
// competitor's).
func checkMaxMin(t *testing.T, m *Model) {
	t.Helper()
	for _, r := range m.resources {
		if r.load > r.capacity*(1+1e-6) {
			t.Fatalf("resource %q over capacity: load %v > %v", r.name, r.load, r.capacity)
		}
	}
	for _, f := range m.flows {
		if f.remaining <= 0 {
			continue // done, awaiting collection
		}
		if f.rate < 0 || math.IsNaN(f.rate) {
			t.Fatalf("flow %q has invalid rate %v", f.name, f.rate)
		}
		if f.cap > 0 && f.rate > f.cap*(1+1e-6) {
			t.Fatalf("flow %q rate %v above its cap %v", f.name, f.rate, f.cap)
		}
		if f.cap > 0 && f.rate >= f.cap*(1-1e-6) {
			continue // cap-limited
		}
		saturated := false
		for _, u := range f.uses {
			if r := u.Resource; r.load >= r.capacity*(1-1e-6) {
				saturated = true
				break
			}
		}
		if !saturated {
			t.Fatalf("flow %q (rate %v, cap %v) is neither cap-limited nor bottlenecked on a saturated resource",
				f.name, f.rate, f.cap)
		}
	}
}

// checkDifferential asserts every rate and load matches a fresh
// reference solve bit for bit (stricter than the oracle's one ulp: the
// incremental solver replays the reference's arithmetic exactly).
func checkDifferential(t *testing.T, m *Model) {
	t.Helper()
	rates, loads := m.referenceRates()
	for i, f := range m.flows {
		if math.Float64bits(f.rate) != math.Float64bits(rates[i]) {
			t.Fatalf("flow %q: incremental rate %x, reference %x", f.name, f.rate, rates[i])
		}
	}
	for i, r := range m.resources {
		if math.Float64bits(r.load) != math.Float64bits(loads[i]) {
			t.Fatalf("resource %q: incremental load %x, reference %x", r.name, r.load, loads[i])
		}
	}
}

// eachFillPath calls fn on each of the solver's two size-selected fill
// paths — bottleneck scan or heap — forced whatever the component size,
// so every path sees every input. The "+sort" runs also check, after
// every component collection, that the members come in canonical order
// (checkCanonical).
func eachFillPath(fn func(path string)) {
	heap := heapMinRes
	defer func() { heapMinRes, onCollect = heap, nil }()
	for _, p := range []struct {
		name   string
		heap   int
		sorted bool
	}{
		{"scan", math.MaxInt, false},
		{"scan+sort", math.MaxInt, true},
		{"heap", 0, false},
		{"heap+sort", 0, true},
	} {
		heapMinRes, onCollect = p.heap, nil
		if p.sorted {
			onCollect = checkCanonical
		}
		fn(p.name)
	}
}

// checkCanonical panics unless the collected component lists its flows
// in strictly ascending flow-list position and its resources in
// strictly ascending id: the orders the whole-model solver iterates in,
// which the bitset walk must reproduce from any discovery order.
func checkCanonical(m *Model) {
	for i := 1; i < len(m.compFlows); i++ {
		if a, b := m.compFlows[i-1].index, m.compFlows[i].index; a >= b {
			panic(fmt.Sprintf("component flows out of order: index %d before %d", a, b))
		}
	}
	for i := 1; i < len(m.compRes); i++ {
		if a, b := m.compRes[i-1].id, m.compRes[i].id; a >= b {
			panic(fmt.Sprintf("component resources out of order: id %d before %d", a, b))
		}
	}
}

// TestPropertyMaxMinInvariants storms random worlds with mutations and
// checks feasibility + bottleneck optimality after every step, on both
// fill paths.
func TestPropertyMaxMinInvariants(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			for seed := int64(0); seed < 150; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				m := NewModel(k)
				m.differential = false
				res, flows := randomWorld(rng, m, 1+rng.Intn(12), 1+rng.Intn(25))
				checkMaxMin(t, m)
				for step := 0; step < 30; step++ {
					mutate(rng, k, m, res, &flows)
					checkMaxMin(t, m)
				}
			}
		})
	})
}

// TestPropertyDifferential storms random worlds and checks the
// incremental allocation against the reference solver — both through
// the oracle armed on every resolve and explicitly after every step —
// on both fill paths forced, and at the real size cutoffs over worlds
// large enough to cross them. The heap fills must leave resources that
// can never bind out of their heaps (see neverBinds), or the storms
// prove nothing about that exclusion.
func TestPropertyDifferential(t *testing.T) {
	defer func() { onFillOrdered = nil }()
	left := 0
	onFillOrdered = func(n int) { left += n }
	storm := func(t *testing.T, seeds int64, maxRes, maxFlows int) {
		for seed := int64(0); seed < seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := sim.NewKernel(seed)
			m := NewModel(k)
			m.differential = true // oracle panics mid-resolve on divergence
			res, flows := randomWorld(rng, m, 1+rng.Intn(maxRes), 1+rng.Intn(maxFlows))
			for step := 0; step < 30; step++ {
				mutate(rng, k, m, res, &flows)
				checkDifferential(t, m)
			}
			// Drain so pending completions resolve under the oracle too.
			k.RunUntil(k.Now().Add(sim.Duration(30 * sim.Second)))
			checkDifferential(t, m)
		}
	}
	wantLeft := func(t *testing.T, path string) {
		t.Logf("%d resources left out of heaps", left)
		if !strings.HasPrefix(path, "scan") && left == 0 {
			t.Fatal("no heap fill left a resource out")
		}
	}
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			left = 0
			storm(t, 150, 12, 25)
			wantLeft(t, path)
		})
	})
	t.Run("cutoffs", func(t *testing.T) {
		left = 0
		storm(t, 6, 240, 400)
		wantLeft(t, "cutoffs")
	})
}

// TestPropertyHoldWindows extends the differential storm with random
// hold windows: twin worlds take the same mutations, one of them
// sometimes under a hold of up to six mutations with reads (which flush)
// mixed in, and after every window or step the held twin must match the
// sequential one bit for bit (sameState) and the reference solver (its
// oracle is armed), on every fill path.
func TestPropertyHoldWindows(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			for seed := int64(0); seed < 150; seed++ {
				ctl := rand.New(rand.NewSource(seed + 1<<20))
				nRes, nFlows := 1+ctl.Intn(12), 1+ctl.Intn(25)
				seq, held := newTwin(seed, nRes, nFlows), newTwin(seed, nRes, nFlows)
				held.m.differential = true
				for step := 0; step < 30; step++ {
					if ctl.Intn(2) == 0 {
						seq.apply(5)
						held.apply(5)
						sameState(t, seq, held)
						continue
					}
					held.m.Hold()
					for n := 1 + ctl.Intn(6); n > 0; n-- {
						op := ctl.Intn(4)
						if ctl.Intn(12) == 0 {
							op = 4 // zero-work start
						}
						seq.apply(op)
						held.apply(op)
						if ctl.Intn(4) == 0 {
							i := ctl.Intn(len(seq.flows))
							if a, b := seq.flows[i].Rate(), held.flows[i].Rate(); math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("seed %d: rate read under hold %x, sequential %x", seed, b, a)
							}
						}
					}
					held.m.Release()
					sameState(t, seq, held)
					checkDifferential(t, held.m)
				}
				seq.k.RunUntil(seq.k.Now().Add(sim.Duration(30 * sim.Second)))
				held.k.RunUntil(held.k.Now().Add(sim.Duration(30 * sim.Second)))
				sameState(t, seq, held)
			}
		})
	})
}

// TestPropertyTiesExact storms worlds built for exact ties: capacities
// drawn from three values, caps from two, two weights and two
// priorities, so several resources, or several capped flows, often
// reach the same threshold in one round. The tie-break
// then decides which flows are fixed first, and with it the order of
// the subtractions on the resources they share, which shows in the last
// bits. Every path must match the reference bit for bit.
func TestPropertyTiesExact(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			for seed := int64(0); seed < 200; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				m := NewModel(k)
				m.differential = false
				capacities := []float64{1 + rng.Float64()*99, 1 + rng.Float64()*99, 1 + rng.Float64()*99}
				caps := []float64{1 + rng.Float64()*30, 1 + rng.Float64()*30}
				res := make([]*Resource, 3+rng.Intn(10))
				for i := range res {
					res[i] = m.NewResource("r", capacities[rng.Intn(len(capacities))])
				}
				start := func() *Flow {
					spec := FlowSpec{Name: "f", Work: 1e3 + rng.Float64()*1e6, Priority: float64(1 + 2*rng.Intn(2))}
					for _, ri := range rng.Perm(len(res))[:1+rng.Intn(3)] {
						spec.Uses = append(spec.Uses, Use{res[ri], float64(1 + rng.Intn(2))})
					}
					if rng.Intn(2) == 0 {
						spec.Cap = caps[rng.Intn(len(caps))]
					}
					return m.Start(spec)
				}
				var flows []*Flow
				for i := 0; i < 5+rng.Intn(30); i++ {
					flows = append(flows, start())
				}
				checkDifferential(t, m)
				for step := 0; step < 30; step++ {
					switch rng.Intn(3) {
					case 0:
						flows = append(flows, start())
					case 1:
						m.Cancel(flows[rng.Intn(len(flows))])
					case 2:
						k.RunUntil(k.Now().Add(sim.Duration(rng.Intn(int(5 * sim.Second)))))
					}
					checkDifferential(t, m)
				}
			}
		})
	})
}

// TestPropertySymmetricFlows checks the fairness axiom directly: two
// flows with identical uses, priority and cap must get bitwise-equal
// rates (they are fixed in the same progressive-filling round from the
// same threshold).
func TestPropertySymmetricFlows(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		m := NewModel(k)
		m.differential = false
		res, _ := randomWorld(rng, m, 1+rng.Intn(8), rng.Intn(15))
		spec := FlowSpec{Name: "twin", Work: 1e6, Priority: 0.5 + rng.Float64()*3}
		for _, ri := range rng.Perm(len(res))[:1+rng.Intn(min(3, len(res)))] {
			spec.Uses = append(spec.Uses, Use{res[ri], 0.25 + rng.Float64()*3.75})
		}
		if rng.Intn(2) == 0 {
			spec.Cap = 1 + rng.Float64()*50
		}
		a := m.Start(spec)
		b := m.Start(spec)
		if a.rate != b.rate {
			t.Fatalf("seed %d: symmetric flows diverge: %x vs %x", seed, a.rate, b.rate)
		}
		// Still symmetric after unrelated churn in the same component.
		m.Start(spec)
		if a.rate != b.rate {
			t.Fatalf("seed %d: symmetry broken by churn: %x vs %x", seed, a.rate, b.rate)
		}
	}
}

// TestDifferentialTransientCompletion replays the scenario that once
// tripped the oracle mid-resolve: a flow completes in one component
// while a mutation re-solves a different component at the same
// instant. The incremental solver leaves the completed flow's
// component untouched until collection; the final states must agree.
func TestDifferentialTransientCompletion(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewModel(k)
	m.differential = true
	busA := m.NewResource("busA", 10)
	busB := m.NewResource("busB", 10)
	short := m.Start(FlowSpec{Name: "short", Work: 5, Uses: []Use{{busA, 1}}})
	m.Start(FlowSpec{Name: "longA", Work: 1e6, Uses: []Use{{busA, 1}}})
	other := m.Start(FlowSpec{Name: "longB", Work: 1e6, Uses: []Use{{busB, 1}}})

	// Run to the exact completion instant of `short`, then immediately
	// mutate busB's component: the resolve triggered by SetCap sees
	// `short` done-but-uncollected in busA's component.
	k.RunUntil(k.Now().Add(sim.Duration(1 * sim.Second)))
	if !short.finished {
		t.Fatal("short flow should have completed")
	}
	m.SetCap(other, 3)
	checkDifferential(t, m)

	// longA must now own all of busA (short's share redistributed).
	if got := busA.load; !ulpEq(got, 10) {
		t.Fatalf("busA load = %v, want saturated at 10", got)
	}
}

// TestSwapRemoveExactness pins the subtle half of the equivalence
// argument: cancelling a flow swap-moves the last flow earlier in the
// global order, which permutes progressive filling's fix order inside
// that flow's component — the remover must re-solve the moved flow's
// component too, or rates drift by ulps. A dedicated test because only
// unlucky arithmetic exposes it.
func TestSwapRemoveExactness(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			for seed := int64(0); seed < 300; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				m := NewModel(k)
				m.differential = true
				_, flows := randomWorld(rng, m, 2+rng.Intn(6), 8+rng.Intn(12))
				// Cancel from the front, so every removal moves a later flow
				// (usually from another component) into the vacated slot.
				for i := 0; i < len(flows)/2; i++ {
					m.Cancel(flows[i])
					checkDifferential(t, m)
				}
			}
		})
	})
}

// TestPropertyPollComponents storms components shaped like a task
// runtime's: a shared controller and 20 to 120 flows on it, most of them
// capped like idle workers' poll flows — distinct caps, caps that tie
// outright or once normalised by priority (cap 2 at priority 2 ties cap
// 1 at priority 1), uncapped flows among them, and a controller whose
// capacity moves above and below the sum of the caps, so that in some
// rounds the bottleneck fixes capped flows before their caps come up.
// Cap lists run long enough to take either of sortCaps' sorts. Every
// path must match the reference bit for bit, which pins the cap list's
// tie order and its cursor over flows the bottleneck fixed.
func TestPropertyPollComponents(t *testing.T) {
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			for seed := int64(0); seed < 60; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				m := NewModel(k)
				m.differential = true
				ctl := m.NewResource("ctl", 10+rng.Float64()*90)
				cores := make([]*Resource, 2+rng.Intn(6))
				for i := range cores {
					cores[i] = m.NewResource("core", 1+rng.Float64()*20)
				}
				tied := []float64{0.5, 1, 2}
				start := func() *Flow {
					spec := FlowSpec{Name: "poll", Work: 1e2 + rng.Float64()*1e4, Priority: float64(1 + rng.Intn(2))}
					spec.Uses = append(spec.Uses, Use{ctl, 0.5 + rng.Float64()})
					if rng.Intn(2) == 0 {
						spec.Uses = append(spec.Uses, Use{cores[rng.Intn(len(cores))], 1})
					}
					switch rng.Intn(4) {
					case 0: // uncapped
					case 1:
						spec.Cap = tied[rng.Intn(len(tied))]
					default:
						spec.Cap = 0.1 + rng.Float64()*5
					}
					return m.Start(spec)
				}
				var flows []*Flow
				for n := 20 + rng.Intn(100); len(flows) < n; {
					flows = append(flows, start())
				}
				checkDifferential(t, m)
				for step := 0; step < 40; step++ {
					switch rng.Intn(6) {
					case 0:
						flows = append(flows, start())
					case 1:
						m.Cancel(flows[rng.Intn(len(flows))])
					case 2:
						if f := flows[rng.Intn(len(flows))]; !f.finished {
							m.SetCap(f, tied[rng.Intn(len(tied))])
						}
					case 3:
						m.SetCapacity(ctl, 1+rng.Float64()*100)
					case 4:
						m.SetCapacity(cores[rng.Intn(len(cores))], 0.5+rng.Float64()*20)
					case 5:
						k.RunUntil(k.Now().Add(sim.Duration(rng.Intn(int(sim.Second)))))
					}
					checkDifferential(t, m)
				}
			}
		})
	})
}
