package fluid

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// runProgram drives the solver with an arbitrary byte-encoded sequence
// of operations (add resources, start/cancel flows, start a flow like an
// earlier one, change capacities/caps, advance time), checking the core invariants after
// every step: feasibility (no resource over capacity), cap respect,
// and non-negative rates/remaining work. With differential set, every
// re-solve is additionally shadowed by the reference solver (the
// oracle panics on any disagreement beyond one ulp). The program runs
// on twin models, one skipping the solves of isolated flows and one
// with the skip forced off, which must agree bit for bit after every
// step (see sameState). The skipping twin also reuses recorded solves
// and the other does not; runProgram returns the first.
func runProgram(t *testing.T, program []byte, differential bool) *twin {
	on, off := newProgramTwin(differential), newProgramTwin(differential)
	step := func(op int, arg float64) {
		withSkip(true, func() { withReuse(true, func() { on.program(op, arg) }) })
		withSkip(false, func() { withReuse(false, func() { off.program(op, arg) }) })
		on.checkInvariants(t)
		off.checkInvariants(t)
		sameState(t, off, on)
	}
	for i := 0; i+1 < len(program); i += 2 {
		step(int(program[i]%8), float64(program[i+1]))
	}
	// Drain: every remaining event must fire without panicking.
	step(drainOp, 0)
	return on
}

// newProgramTwin returns an empty twin for runProgram.
func newProgramTwin(differential bool) *twin {
	k := sim.NewKernel(1)
	tw := &twin{k: k, m: NewModel(k), rng: k.Rand(), ids: map[*Flow]int{}}
	tw.m.differential = differential
	return tw
}

// drainOp is runProgram's final step: run every remaining event.
const drainOp = -1

// program runs one operation of a program.
func (tw *twin) program(op int, arg float64) {
	k, m, rng := tw.k, tw.m, tw.rng
	switch op {
	case 0, 1: // add resource
		tw.res = append(tw.res, m.NewResource("r", 1+arg))
	case 2: // start flow on random subset
		if len(tw.res) == 0 {
			return
		}
		var uses []Use
		for _, r := range tw.res {
			if rng.Intn(2) == 0 {
				uses = append(uses, Use{r, 0.5 + rng.Float64()})
			}
		}
		spec := FlowSpec{Name: "f", Work: 1 + arg*1e3, Priority: 0.5 + rng.Float64()*3}
		if len(uses) == 0 || rng.Intn(3) == 0 {
			spec.Cap = 1 + arg
		}
		spec.Uses = uses
		tw.startSpec(spec)
	case 3: // cancel a flow
		if len(tw.flows) > 0 {
			m.Cancel(tw.flows[int(arg)%len(tw.flows)])
		}
	case 4: // advance time
		k.RunUntil(k.Now().Add(sim.Duration(1+arg) * sim.Millisecond))
	case 5: // change a capacity
		if len(tw.res) > 0 {
			m.SetCapacity(tw.res[int(arg)%len(tw.res)], 1+arg*2)
		}
	case 6: // change a cap
		if len(tw.flows) > 0 {
			fl := tw.flows[int(arg)%len(tw.flows)]
			if !fl.finished && len(fl.uses) > 0 {
				m.SetCap(fl, 1+arg)
			}
		}
	case 7: // start a flow again: an earlier one's uses, cap and priority
		if len(tw.specs) > 0 {
			spec := tw.specs[int(arg)%len(tw.specs)]
			spec.Work = 1 + arg*1e3
			tw.startSpec(spec)
		}
	case drainOp:
		k.RunUntil(k.Now().Add(sim.Duration(10 * sim.Second)))
	}
}

// startSpec starts a program's flow and keeps its spec.
func (tw *twin) startSpec(spec FlowSpec) {
	reuses := tw.m.Reuses()
	f := tw.m.Start(spec)
	tw.hits += tw.m.Reuses() - reuses
	tw.ids[f] = len(tw.flows)
	tw.flows = append(tw.flows, f)
	tw.specs = append(tw.specs, spec)
}

// checkInvariants asserts the allocation invariants.
func (tw *twin) checkInvariants(t *testing.T) {
	t.Helper()
	for _, r := range tw.res {
		if r.load > r.capacity*(1+1e-6) {
			t.Fatalf("resource %q over capacity: %v > %v", r.name, r.load, r.capacity)
		}
	}
	for _, fl := range tw.flows {
		if fl.finished {
			continue
		}
		if fl.rate < 0 || math.IsNaN(fl.rate) {
			t.Fatalf("flow %q rate %v", fl.name, fl.rate)
		}
		if fl.cap > 0 && fl.rate > fl.cap*(1+1e-6) {
			t.Fatalf("flow %q rate %v above cap %v", fl.name, fl.rate, fl.cap)
		}
		if fl.remaining < 0 {
			t.Fatalf("flow %q negative remaining %v", fl.name, fl.remaining)
		}
	}
}

// FuzzSolverInvariants checks the allocation invariants under
// arbitrary operation sequences.
func FuzzSolverInvariants(f *testing.F) {
	f.Add([]byte{1, 10, 2, 30, 2, 60, 3, 0, 4, 5})
	f.Add([]byte{1, 200, 2, 10, 2, 10, 2, 10, 5, 0, 4, 50, 3, 1})
	f.Add([]byte{1, 1, 1, 255, 2, 0, 2, 128, 6, 77, 3, 0, 3, 1, 4, 255})
	f.Fuzz(func(t *testing.T, program []byte) {
		runProgram(t, program, false)
	})
}

// reuseSeeds are FuzzFluid programs that reuse recorded solves: flows
// started again like earlier ones over a saturated resource. In the
// first, starts hit the memo and cancels undo them, around a capacity
// change; in the second, a completion undoes its flow's start.
var reuseSeeds = [][]byte{
	{1, 60, 1, 60, 2, 200, 2, 200, 2, 200, 2, 1, 3, 3, 7, 3, 3, 4, 7, 3, 5, 0, 7, 3, 4, 255},
	{1, 255, 1, 255, 2, 200, 2, 200, 2, 200, 2, 0, 4, 255, 7, 3, 4, 255, 4, 255, 4, 255, 7, 3, 4, 255, 4, 255, 4, 255},
}

// TestReuseSeedsReuse: each of reuseSeeds reaches both reuse paths, a
// start that hits the memo and a removal that undoes a start.
func TestReuseSeedsReuse(t *testing.T) {
	for i, p := range reuseSeeds {
		on := runProgram(t, p, true)
		if hits, undos := on.hits, on.m.Reuses()-on.hits; hits == 0 || undos == 0 {
			t.Errorf("seed %d: %d start hits, %d undos; want both", i, hits, undos)
		}
	}
}

// FuzzFluid is the differential fuzzer: the same operation programs,
// but with the reference-solver oracle armed on every re-solve, so any
// divergence between the incremental and the original solver is a
// crash. Seeds are promoted from the cases that mattered during
// development and from the property suite's interesting shapes. Every
// program runs on every fill path (see eachFillPath), with the
// isolated-flow skip and the solve reuse on and off (see runProgram).
func FuzzFluid(f *testing.F) {
	// Two components, cancel the first flow: the swap-remove moves the
	// last flow into slot 0, permuting fix order inside its component.
	f.Add([]byte{1, 50, 1, 50, 2, 10, 2, 10, 2, 10, 3, 0, 4, 20, 5, 1, 6, 0})
	// Short flow completes while a different component is mutated at
	// the same instant (the done-but-uncollected transient that once
	// tripped a mid-resolve oracle check).
	f.Add([]byte{1, 10, 1, 10, 2, 0, 2, 200, 2, 200, 4, 255, 6, 1, 4, 255})
	// Capacity churn on a shared resource: repeated SetCapacity
	// re-solves of a loaded component, interleaved with completions.
	f.Add([]byte{1, 100, 2, 5, 2, 5, 2, 5, 5, 0, 4, 100, 5, 0, 4, 100, 5, 0})
	// Cap-tie round: several flows whose normalised caps coincide are
	// fixed in one round; then one is cancelled.
	f.Add([]byte{1, 255, 2, 7, 2, 7, 2, 7, 2, 7, 6, 0, 6, 1, 3, 2, 4, 50})
	// Deep churn: starts and cancels alternating, stressing the
	// free-list and adjacency swap-removal bookkeeping.
	f.Add([]byte{1, 30, 1, 60, 2, 3, 3, 0, 2, 3, 3, 0, 2, 3, 3, 0, 2, 3, 4, 90})
	// Isolated flows: small caps on roomy resources, so starts and
	// cancels skip their solves. The skip-on twin drifts from the
	// skip-off twin when the skip re-sums loads out of the solver's
	// order (first program), or skips on a resource without slack or
	// past a swap-moved flow that is not isolated (second).
	f.Add([]byte{0, 168, 6, 111, 3, 29, 6, 249, 2, 5, 0, 245, 0, 234, 2, 4, 0, 172, 3, 244, 0, 234, 2, 0, 3, 123, 2, 4, 5, 50})
	f.Add([]byte{5, 187, 3, 44, 0, 159, 6, 197, 2, 3, 2, 0, 4, 249, 0, 223, 5, 110, 0, 181, 2, 4, 2, 1, 2, 2, 0, 157})
	for _, p := range reuseSeeds {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, program []byte) {
		eachFillPath(func(string) { runProgram(t, program, true) })
	})
}
