package fluid

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// runProgram drives the solver with an arbitrary byte-encoded sequence
// of operations (add resources, start/cancel flows, change
// capacities/caps, advance time), checking the core invariants after
// every step: feasibility (no resource over capacity), cap respect,
// and non-negative rates/remaining work. With differential set, every
// re-solve is additionally shadowed by the reference solver (the
// oracle panics on any disagreement beyond one ulp). The program runs
// on twin models, one skipping the solves of isolated flows and one
// with the skip forced off, which must agree bit for bit after every
// step (see sameState).
func runProgram(t *testing.T, program []byte, differential bool) {
	on, off := newProgramTwin(differential), newProgramTwin(differential)
	step := func(op int, arg float64) {
		withSkip(true, func() { on.program(op, arg) })
		withSkip(false, func() { off.program(op, arg) })
		on.checkInvariants(t)
		off.checkInvariants(t)
		sameState(t, off, on)
	}
	for i := 0; i+1 < len(program); i += 2 {
		step(int(program[i]%7), float64(program[i+1]))
	}
	// Drain: every remaining event must fire without panicking.
	step(drainOp, 0)
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
		f := m.Start(spec)
		tw.ids[f] = len(tw.flows)
		tw.flows = append(tw.flows, f)
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
	case drainOp:
		k.RunUntil(k.Now().Add(sim.Duration(10 * sim.Second)))
	}
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

// FuzzFluid is the differential fuzzer: the same operation programs,
// but with the reference-solver oracle armed on every re-solve, so any
// divergence between the incremental and the original solver is a
// crash. Seeds are promoted from the cases that mattered during
// development and from the property suite's interesting shapes. Every
// program runs on every fill path (see eachFillPath), with the
// isolated-flow skip on and off (see runProgram).
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
	f.Fuzz(func(t *testing.T, program []byte) {
		eachFillPath(func(string) { runProgram(t, program, true) })
	})
}
