package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// twin runs random process programs and records, after every operation
// of every process and every timer firing, the instant, who acted and
// its step number. A program's trace must not depend on whether sleeps
// end in place.
type twin struct {
	trace   []string
	resumes uint64 // summed over every kernel the program ran
	kernels int    // one nested kernel at most: each process is a goroutine
}

// twinKernel is one kernel of a program with the signals and timers its
// processes share.
type twinKernel struct {
	t      *twin
	k      *Kernel
	name   string
	sigs   []*Signal
	timers []*Timer
}

func (t *twin) rec(tk *twinKernel, who string, step int) {
	t.trace = append(t.trace, fmt.Sprintf("%d %s/%s %d", tk.k.Now(), tk.name, who, step))
}

func (t *twin) newKernel(seed int64) *twinKernel {
	tk := &twinKernel{t: t, k: NewKernel(seed), name: fmt.Sprintf("k%d", t.kernels)}
	t.kernels++
	for i := 0; i < 3; i++ {
		tk.sigs = append(tk.sigs, NewSignal(tk.k))
	}
	for i := 0; i < 2; i++ {
		fired := 0
		tk.timers = append(tk.timers, tk.k.NewTimer(func() {
			fired++
			t.rec(tk, fmt.Sprintf("timer%d", i), fired)
			tk.sigs[i].Broadcast()
		}))
	}
	return tk
}

// done records a kernel's end state and stops its processes.
func (tk *twinKernel) done() {
	tk.t.rec(tk, "end", tk.k.LiveProcs())
	tk.t.resumes += tk.k.Resumes()
	tk.k.Shutdown()
}

// proc returns a process body of ops random operations drawn from r.
// depth bounds the nesting of kernels inside processes.
func (tk *twinKernel) proc(name string, r *rand.Rand, ops, depth int) func(*Proc) {
	return func(p *Proc) {
		for step := 0; step < ops; step++ {
			switch op := r.Intn(11); op {
			case 0, 1, 2:
				p.Sleep(Duration(r.Intn(4) * 5)) // ties on a coarse grid, Sleep(0) included
			case 3:
				p.Sleep(Duration(1 + r.Intn(30)))
			case 4:
				tk.sigs[r.Intn(len(tk.sigs))].Wait(p)
			case 5:
				if !tk.sigs[r.Intn(len(tk.sigs))].WaitTimeout(p, Duration(1+r.Intn(25))) {
					tk.t.rec(tk, name+"-timeout", step)
				}
			case 6:
				s := tk.sigs[r.Intn(len(tk.sigs))]
				if r.Intn(2) == 0 {
					s.Signal()
				} else {
					s.Broadcast()
				}
			case 7:
				tm := tk.timers[r.Intn(len(tk.timers))]
				at := p.Now().Add(Duration(r.Intn(4) * 5))
				switch r.Intn(4) {
				case 0:
					tm.Arm(at)
				case 1:
					tm.Reserve()
				case 2:
					tm.Rearm(at)
				default:
					tm.Stop()
				}
			case 8:
				child := fmt.Sprintf("%s.%d", name, step)
				tk.k.Spawn(child, tk.proc(child, rand.New(rand.NewSource(r.Int63())), ops/2, depth))
			case 9:
				if depth > 0 && tk.t.kernels == 1 {
					inner := tk.t.newKernel(r.Int63())
					for i := 0; i < 2; i++ {
						n := fmt.Sprintf("p%d", i)
						inner.k.Spawn(n, inner.proc(n, rand.New(rand.NewSource(r.Int63())), 8, depth-1))
					}
					inner.drive(r)
				}
			default:
				p.Sleep(Duration(r.Intn(3) * 5))
				tk.sigs[r.Intn(len(tk.sigs))].Broadcast()
			}
			tk.t.rec(tk, name, step)
		}
	}
}

// drive runs the kernel the way callers do: RunUntil horizons that may
// cut a sleep, each followed by an outside stimulus, a few bare Steps,
// then Run to the end.
func (tk *twinKernel) drive(r *rand.Rand) {
	for h := 0; h < 4; h++ {
		tk.k.RunUntil(tk.k.Now().Add(Duration(r.Intn(40))))
		tk.t.rec(tk, "horizon", h)
		tk.sigs[r.Intn(len(tk.sigs))].Broadcast()
		for s := r.Intn(3); s > 0; s-- {
			tk.k.Step()
			tk.t.rec(tk, "step", s)
		}
	}
	tk.k.Run()
	tk.done()
}

// runTwin runs the program of the given seed and returns its trace and
// the process resumes it took.
func runTwin(seed int64) ([]string, uint64) {
	t := &twin{}
	r := rand.New(rand.NewSource(seed))
	tk := t.newKernel(seed)
	for i := 0; i < 3; i++ {
		n := fmt.Sprintf("p%d", i)
		tk.k.Spawn(n, tk.proc(n, rand.New(rand.NewSource(r.Int63())), 16, 1))
	}
	tk.drive(r)
	return t.trace, t.resumes
}

// TestSleepInPlaceTwin runs random programs with sleeps ending in place
// and with every sleep going through the event queue: the traces must be
// identical, and in-place sleeps must have saved switches.
func TestSleepInPlaceTwin(t *testing.T) {
	var saved uint64
	for seed := int64(1); seed <= 300; seed++ {
		fast, fastResumes := runTwin(seed)
		sleepInPlace = false
		slow, slowResumes := runTwin(seed)
		sleepInPlace = true
		if !slices.Equal(fast, slow) {
			for i := range min(len(fast), len(slow)) {
				if fast[i] != slow[i] {
					t.Fatalf("seed %d: traces diverge at line %d: in place %q, queued %q\n%s",
						seed, i, fast[i], slow[i], strings.Join(slow[max(0, i-10):i+1], "\n"))
				}
			}
			t.Fatalf("seed %d: traces differ in length: in place %d, queued %d", seed, len(fast), len(slow))
		}
		if fastResumes > slowResumes {
			t.Fatalf("seed %d: %d resumes in place, %d queued", seed, fastResumes, slowResumes)
		}
		saved += slowResumes - fastResumes
	}
	if saved == 0 {
		t.Fatal("no sleep ended in place: the twin compared nothing")
	}
}

func TestSleepInPlaceStopsAtHorizon(t *testing.T) {
	k := NewKernel(1)
	var woke []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			woke = append(woke, p.Now())
		}
	})
	k.RunUntil(15)
	if k.Now() != 15 || len(woke) != 1 || woke[0] != 10 {
		t.Fatalf("RunUntil(15): now %v, woke %v; want 15, [10]", k.Now(), woke)
	}
	if k.Idle() {
		t.Fatal("the sleep cut by the horizon was not queued")
	}
	k.Step() // a bare Step: the next sleep must be queued, not end in place
	if k.Now() != 20 || len(woke) != 2 || k.Idle() {
		t.Fatalf("after Step: now %v, woke %v, idle %v; want 20, [10 20], false", k.Now(), woke, k.Idle())
	}
	k.Run()
	if k.Now() != 30 || len(woke) != 3 || k.Steps() != 3 || k.Resumes() != 3 {
		t.Fatalf("after Run: now %v, woke %v, %d steps, %d resumes; want 30, 3 wakeups, 3 and 3",
			k.Now(), woke, k.Steps(), k.Resumes())
	}
}

// TestEventHeapOrder drives the queue with random schedules, cancels,
// timer re-arms and pops, and checks that events run in (instant,
// scheduling order) order and that the heap's indexes stay consistent.
func TestEventHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		type pending struct {
			at  Time
			seq uint64
			id  int
		}
		var want []pending // the reference queue
		var refs []EventRef
		ran := -1
		timers := []*Timer{k.NewTimer(func() { ran = -2 }), k.NewTimer(func() { ran = -3 })}
		timerSeq := make([]uint64, len(timers))
		for i, tm := range timers {
			tm.Reserve() // a Rearm reuses the timer's place in the order
			timerSeq[i] = tm.seq
		}
		for op := 0; op < 400; op++ {
			switch x := r.Intn(10); {
			case x < 5:
				id := len(refs)
				at := k.Now().Add(Duration(r.Intn(20)))
				refs = append(refs, k.At(at, func() { ran = id }))
				want = append(want, pending{at, k.seq - 1, id})
			case x < 6 && len(refs) > 0:
				id := r.Intn(len(refs))
				k.Cancel(refs[id])
				want = slices.DeleteFunc(want, func(p pending) bool { return p.id == id })
			case x < 7:
				i := r.Intn(len(timers))
				tm, id := timers[i], -2-i
				want = slices.DeleteFunc(want, func(p pending) bool { return p.id == id })
				at := k.Now().Add(Duration(r.Intn(20)))
				switch r.Intn(3) {
				case 0:
					tm.Arm(at)
					timerSeq[i] = tm.seq
					want = append(want, pending{at, timerSeq[i], id})
				case 1:
					tm.Reserve()
					timerSeq[i] = tm.seq
				default:
					tm.Rearm(at)
					want = append(want, pending{at, timerSeq[i], id})
				}
			default:
				if len(want) == 0 {
					if k.Step() {
						t.Fatalf("seed %d: Step ran an event off an empty queue", seed)
					}
					break
				}
				first := slices.MinFunc(want, func(a, b pending) int {
					if a.at != b.at {
						return int(a.at - b.at)
					}
					return int(a.seq) - int(b.seq)
				})
				want = slices.DeleteFunc(want, func(p pending) bool { return p.id == first.id })
				if !k.Step() || ran != first.id || k.Now() != first.at {
					t.Fatalf("seed %d op %d: ran %d at %v, want %d at %v", seed, op, ran, k.Now(), first.id, first.at)
				}
			}
			if len(k.events) != len(want) {
				t.Fatalf("seed %d op %d: %d queued, reference %d", seed, op, len(k.events), len(want))
			}
			for i, e := range k.events {
				if e.index != i {
					t.Fatalf("seed %d op %d: event at %d says index %d", seed, op, i, e.index)
				}
				if i > 0 && e.before(k.events[(i-1)/2]) {
					t.Fatalf("seed %d op %d: heap order broken at %d", seed, op, i)
				}
			}
		}
	}
}
