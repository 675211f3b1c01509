package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// mixedWaiters runs one scenario on a signal: three waiters queue in
// turn, a broadcast wakes them between two marker events of the same
// instant, then three queue again and three Signals wake them one by
// one, each between markers. Waiter i is a continuation when cont(i)
// holds and a process otherwise. It returns the trace of (instant,
// label, events dispatched so far).
func mixedWaiters(cont func(i int) bool) []string {
	k := NewKernel(1)
	s := NewSignal(k)
	var trace []string
	rec := func(label string) { trace = append(trace, fmt.Sprintf("%d %s %d", k.Now(), label, k.Steps())) }
	const n = 6
	conts := make([]Cont, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("w%d", i)
		if cont(i) {
			rounds := 0
			conts[i] = MakeCont(func() {
				rec(name)
				if rounds++; rounds < 2 {
					s.WaitCont(&conts[i])
				}
			})
			k.At(0, func() { s.WaitCont(&conts[i]) })
			continue
		}
		k.Spawn(name, func(p *Proc) {
			for round := 0; round < 2; round++ {
				s.Wait(p)
				rec(name)
			}
		})
	}
	k.At(5, func() {
		k.At(5, func() { rec("before") })
		s.Broadcast()
		k.At(5, func() { rec("after") })
	})
	k.At(10, func() {
		for i := 0; i < n; i++ {
			k.At(10, func() { rec(fmt.Sprintf("mark%d", i)) })
			s.Signal()
		}
	})
	k.Run()
	rec("end")
	return trace
}

// TestContMixedWaitersFIFO queues processes and continuations on one
// signal, interleaved: a broadcast and single signals wake them in FIFO
// order, and each takes the event slot a process waiter in its place
// would take.
func TestContMixedWaitersFIFO(t *testing.T) {
	procs := mixedWaiters(func(int) bool { return false })
	for name, cont := range map[string]func(int) bool{
		"odd":   func(i int) bool { return i%2 == 1 },
		"even":  func(i int) bool { return i%2 == 0 },
		"all":   func(int) bool { return true },
		"first": func(i int) bool { return i < 3 },
	} {
		if got := mixedWaiters(cont); !slices.Equal(got, procs) {
			t.Errorf("%s continuations: trace\n%s\nwant (processes only)\n%s", name,
				strings.Join(got, "\n"), strings.Join(procs, "\n"))
		}
	}
	want := []string{"before", "w0", "w1", "w2", "w3", "w4", "w5", "after",
		"mark0", "w0", "mark1", "w1", "mark2", "w2", "mark3", "w3", "mark4", "w4", "mark5", "w5", "end"}
	var labels []string
	for _, line := range procs {
		labels = append(labels, strings.Fields(line)[1])
	}
	if !slices.Equal(labels, want) {
		t.Fatalf("wake order %v, want %v", labels, want)
	}
}

// sleeper is one actor of a sleep program: a list of operations, each a
// sleep (op ≥ 0, its duration) or a wait on signal -op-1, run by a
// process or by a continuation chain.
type sleeper struct {
	name string
	ops  []int
	next int
	cont Cont
}

// sleepProgram builds a random program of actors, timers that broadcast
// the signals, and a drive of RunUntil horizons and bare Steps, and runs
// it with actor i a continuation when cont(i) holds. It returns the
// trace of (instant, who, step, events dispatched so far).
func sleepProgram(seed int64, cont func(i int) bool) []string {
	r := rand.New(rand.NewSource(seed))
	k := NewKernel(seed)
	var trace []string
	rec := func(who string, step int) {
		trace = append(trace, fmt.Sprintf("%d %s %d %d", k.Now(), who, step, k.Steps()))
	}
	sigs := []*Signal{NewSignal(k), NewSignal(k)}
	for i, n := 0, 2+r.Intn(6); i < n; i++ {
		at, sig := Time(r.Intn(120)), sigs[r.Intn(len(sigs))]
		k.At(at, func() { rec("timer", i); sig.Broadcast() })
	}
	actors := make([]*sleeper, 1+r.Intn(4))
	for i := range actors {
		a := &sleeper{name: fmt.Sprintf("a%d", i)}
		for j, n := 0, 4+r.Intn(12); j < n; j++ {
			if r.Intn(5) == 0 {
				a.ops = append(a.ops, -1-r.Intn(len(sigs)))
			} else {
				a.ops = append(a.ops, r.Intn(4)*5+r.Intn(2)) // ties on a coarse grid, zero included
			}
		}
		actors[i] = a
		if cont(i) {
			a.cont = MakeCont(func() {
				rec(a.name, a.next)
				if a.next == len(a.ops) {
					return
				}
				op := a.ops[a.next]
				a.next++
				if op < 0 {
					sigs[-op-1].WaitCont(&a.cont)
				} else {
					k.SleepCont(&a.cont, Duration(op))
				}
			})
			k.At(0, a.cont.fire) // the slot a Spawn would give the process
			continue
		}
		k.Spawn(a.name, func(p *Proc) {
			for {
				rec(a.name, a.next)
				if a.next == len(a.ops) {
					return
				}
				op := a.ops[a.next]
				a.next++
				if op < 0 {
					sigs[-op-1].Wait(p)
				} else {
					p.Sleep(Duration(op))
				}
			}
		})
	}
	for h := 0; h < 3; h++ {
		k.RunUntil(k.Now().Add(Duration(r.Intn(40))))
		rec("horizon", h)
		for s := r.Intn(3); s > 0; s-- {
			k.Step()
			rec("step", s)
		}
	}
	k.Run()
	rec("end", 0)
	k.Shutdown()
	return trace
}

// TestContSleepTwin runs random sleep-and-wait programs with each actor a
// process, then with some or all of them continuations: the traces,
// which count the events dispatched, must be identical, so a
// continuation's sleep ends in place exactly where a process's does. It
// holds with in-place sleeping on and off.
func TestContSleepTwin(t *testing.T) {
	defer func() { sleepInPlace = true }()
	for _, inPlace := range []bool{true, false} {
		sleepInPlace = inPlace
		for seed := int64(1); seed <= 200; seed++ {
			procs := sleepProgram(seed, func(int) bool { return false })
			mixed := sleepProgram(seed, func(i int) bool { return (int64(i)+seed)%2 == 0 })
			conts := sleepProgram(seed, func(int) bool { return true })
			for name, got := range map[string][]string{"mixed": mixed, "continuations": conts} {
				if slices.Equal(got, procs) {
					continue
				}
				for i := range min(len(got), len(procs)) {
					if got[i] != procs[i] {
						t.Fatalf("in place %v, seed %d: %s traces diverge at line %d: %q, processes %q\n%s",
							inPlace, seed, name, i, got[i], procs[i], strings.Join(procs[max(0, i-10):i+1], "\n"))
					}
				}
				t.Fatalf("in place %v, seed %d: %s trace has %d lines, processes %d", inPlace, seed, name, len(got), len(procs))
			}
		}
	}
}

// TestContSleepInPlaceSkipsQueue pins the in-place branch itself: a lone
// continuation's sleep ends in place under Run, goes through the queue
// past a RunUntil horizon and on a tie with the queue's head.
func TestContSleepInPlaceSkipsQueue(t *testing.T) {
	k := NewKernel(1)
	var woke []Time
	var c Cont
	c = MakeCont(func() {
		woke = append(woke, k.Now())
		if len(woke) < 4 {
			k.SleepCont(&c, 10)
		}
	})
	k.At(0, func() { k.SleepCont(&c, 10) })
	k.At(30, func() {})
	k.RunUntil(15) // 10 in place; 20 is past the horizon
	if !slices.Equal(woke, []Time{10}) || k.Steps() != 1 {
		t.Fatalf("RunUntil(15): woke %v after %d events, want [10] after 1", woke, k.Steps())
	}
	k.Run() // 20 from the queue, 30 ties the queued event, 40 in place
	if !slices.Equal(woke, []Time{10, 20, 30, 40}) || k.Steps() != 4 {
		t.Fatalf("Run: woke %v after %d events, want [10 20 30 40] after 4", woke, k.Steps())
	}
}

// TestResumeOfStoppedProcess parks two processes, each to be resumed
// by a continuation, one pending on a signal and one on a sleep, then
// stops them with Kernel.Shutdown: the continuations still run, and
// their Resume must do nothing. A live process's continuation resumes
// it.
func TestResumeOfStoppedProcess(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	ran := map[string]int{}
	park := func(name string, arm func(c *Cont)) {
		k.Spawn(name, func(p *Proc) {
			c := MakeCont(func() { ran[name]++; p.Resume() })
			arm(&c)
			p.Park()
			ran[name+" resumed"]++
		})
	}
	park("waiter", s.WaitCont)
	park("sleeper", func(c *Cont) { k.At(k.Now(), func() { k.SleepCont(c, 10) }) })
	park("live", func(c *Cont) { k.At(k.Now(), func() { k.SleepCont(c, 1) }) })
	k.RunUntil(5)
	if ran["live"] != 1 || ran["live resumed"] != 1 {
		t.Fatalf("live continuation: %v", ran)
	}
	if k.LiveProcs() != 2 || k.Idle() {
		t.Fatalf("before Shutdown: %d live processes, idle %v; want 2 parked and a pending sleep", k.LiveProcs(), k.Idle())
	}
	k.Shutdown()
	s.Broadcast()
	k.Run()
	if ran["waiter"] != 1 || ran["sleeper"] != 1 {
		t.Fatalf("continuations of stopped processes did not run: %v", ran)
	}
	if ran["waiter resumed"]+ran["sleeper resumed"] != 0 {
		t.Fatalf("Resume ran a stopped process: %v", ran)
	}
	if k.LiveProcs() != 0 || !k.Idle() {
		t.Fatalf("after Shutdown: %d live processes, idle %v", k.LiveProcs(), k.Idle())
	}
}

func TestResumeUnparkedPanics(t *testing.T) {
	k := NewKernel(1)
	p := k.Spawn("idle", func(p *Proc) { p.Sleep(10) })
	k.Step()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not parked") {
			t.Fatalf("Resume of a sleeping process: recovered %v, want a not-parked panic", r)
		}
		k.Shutdown()
	}()
	p.Resume()
}
