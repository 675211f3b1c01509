package sim

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		woke = p.Now()
	})
	k.Run()
	if woke != Time(2*Microsecond) {
		t.Fatalf("woke at %v, want 2us", woke)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("%d live procs after Run", k.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var got []string
	for _, name := range []string{"a", "b"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				got = append(got, name)
				p.Sleep(10)
			}
		})
	}
	k.Run()
	want := []string{"a", "b", "a", "b", "a", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("interleaving %v, want %v", got, want)
		}
	}
}

func TestSignalWakesFIFO(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var got []string
	for _, name := range []string{"first", "second"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			s.Wait(p)
			got = append(got, name)
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100)
		if s.Waiters() != 2 {
			t.Errorf("waiters = %d, want 2", s.Waiters())
		}
		s.Signal()
		p.Sleep(100)
		s.Signal()
	})
	k.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("wake order %v", got)
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	n := 0
	for i := 0; i < 5; i++ {
		k.Spawn("w", func(p *Proc) {
			s.Wait(p)
			n++
		})
	}
	k.Spawn("b", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast()
	})
	k.Run()
	if n != 5 {
		t.Fatalf("broadcast woke %d of 5", n)
	}
}

// TestBroadcastMatchesSignals pins Broadcast to the events of a
// sequence of Signal calls: the same wake order and the same event
// count, for a crowd of waiters that keep running after they wake.
func TestBroadcastMatchesSignals(t *testing.T) {
	const n = 1000
	run := func(wake func(s *Signal)) ([]int, uint64) {
		k := NewKernel(1)
		s := NewSignal(k)
		var order []int
		for i := 0; i < n; i++ {
			i := i
			k.Spawn("w", func(p *Proc) {
				s.Wait(p)
				order = append(order, i)
				p.Sleep(Duration(i % 3))
				order = append(order, -i)
			})
		}
		k.Spawn("waker", func(p *Proc) {
			p.Sleep(10)
			wake(s)
			if s.Waiters() != 0 {
				t.Errorf("%d waiters left after waking all", s.Waiters())
			}
		})
		k.Run()
		return order, k.Steps()
	}
	wantOrder, wantSteps := run(func(s *Signal) {
		for s.Waiters() > 0 {
			s.Signal()
		}
	})
	gotOrder, gotSteps := run((*Signal).Broadcast)
	if len(gotOrder) != 2*n || !slices.Equal(gotOrder, wantOrder) {
		t.Fatalf("Broadcast wake order differs from sequential Signal calls")
	}
	if gotSteps != wantSteps {
		t.Fatalf("Broadcast took %d steps, sequential Signal calls %d", gotSteps, wantSteps)
	}
}

func TestDeadlockedProcIsReported(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	k.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	k.Run()
	if k.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (deadlocked)", k.LiveProcs())
	}
	// Unstick it so the process finishes cleanly.
	s.Broadcast()
	k.Run()
	if k.LiveProcs() != 0 {
		t.Fatal("proc still live after broadcast")
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("boom", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("panic in proc did not propagate to Run")
		}
	}()
	k.Run()
}

func TestQueueFIFOAndTryPop(t *testing.T) {
	var q Queue[int]
	q.Push(1)
	q.Push(2)
	if v, ok := q.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = %d,%v", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	if v, ok := q.TryPop(); !ok || v != 2 {
		t.Fatalf("TryPop = %d,%v", v, ok)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue succeeded")
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel(1)
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childAt = c.Now()
		})
		p.Sleep(1000)
	})
	k.Run()
	if childAt != 150 {
		t.Fatalf("child finished at %v, want 150", childAt)
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	// a yields at t=0, letting b run before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestProcPanicRecyclesProc(t *testing.T) {
	k := NewKernel(1)
	boom := k.Spawn("boom", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"boom" panicked: boom`) {
				t.Errorf("Step re-raised %q, want the process panic", msg)
			}
		}()
		for k.Step() {
		}
		t.Error("panic in proc did not propagate to Step")
	}()
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after the panic, want 0", k.LiveProcs())
	}
	var woke Time
	again := k.Spawn("again", func(p *Proc) {
		p.Sleep(5)
		woke = p.Now()
	})
	if again != boom {
		t.Fatal("the panicked process was not recycled")
	}
	k.Run()
	if woke != 15 || k.LiveProcs() != 0 {
		t.Fatalf("recycled process woke at %v with %d live, want 15 and 0", woke, k.LiveProcs())
	}
}

func TestShutdownEndsParkedAndBlockedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	s := NewSignal(k)
	var waitDefers, sleepDefers int
	resumed := false
	k.Spawn("done", func(p *Proc) { p.Sleep(1) })
	k.Spawn("waiter", func(p *Proc) {
		defer func() { waitDefers++ }()
		s.Wait(p)
		resumed = true
	})
	k.Spawn("sleeper", func(p *Proc) {
		defer func() { sleepDefers++ }()
		p.Sleep(Second)
		resumed = true
	})
	k.RunUntil(100)
	if k.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d before Shutdown, want 2 blocked", k.LiveProcs())
	}
	if n := runtime.NumGoroutine(); n < base+3 {
		t.Fatalf("%d goroutines with three processes, want at least %d", n, base+3)
	}
	k.Shutdown()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Shutdown, %d before the kernel", n, base)
	}
	if waitDefers != 1 || sleepDefers != 1 {
		t.Fatalf("blocked bodies ran their defers %d and %d times, want once each", waitDefers, sleepDefers)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Shutdown", k.LiveProcs())
	}
	// The sleeper's wake-up is still queued, and the waiter is still on
	// the signal: neither may resume a stopped body.
	s.Broadcast()
	k.Run()
	if resumed {
		t.Fatal("a stopped process resumed")
	}
	// The kernel stays usable, on a fresh coroutine.
	ran := false
	k.Spawn("after", func(p *Proc) {
		p.Sleep(1)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatal("Spawn after Shutdown did not run")
	}
	k.Shutdown()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the second Shutdown, %d before the kernel", n, base)
	}
}

func TestWaitTimeoutTieGoesToFirstScheduled(t *testing.T) {
	for _, tc := range []struct {
		name          string
		signallerLast bool
		want          bool
	}{
		{"timer-first", true, false},
		{"signal-first", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			s := NewSignal(k)
			var fired bool
			var woke Time
			wakes := 0
			waiter := func(p *Proc) {
				fired = waitTimeout(p, s, 5)
				woke = p.Now()
				wakes++
				p.Sleep(100) // a stale second wake would resume this sleep early
				wakes++
			}
			signaller := func(p *Proc) {
				p.Sleep(5)
				s.Signal()
			}
			if tc.signallerLast {
				k.Spawn("waiter", waiter)
				k.Spawn("signaller", signaller)
			} else {
				k.Spawn("signaller", signaller)
				k.Spawn("waiter", waiter)
			}
			k.Run()
			if fired != tc.want || woke != 5 {
				t.Fatalf("timed wait = %v at %v, want %v at 5", fired, woke, tc.want)
			}
			if wakes != 2 || k.Now() != 105 || s.Waiters() != 0 {
				t.Fatalf("wakes=%d now=%v waiters=%d, want 2, 105, 0", wakes, k.Now(), s.Waiters())
			}
		})
	}
}

func TestNestedKernelInsideProc(t *testing.T) {
	outer := NewKernel(1)
	var got []string
	outer.Spawn("driver", func(p *Proc) {
		for round := 0; round < 2; round++ {
			inner := NewKernel(2)
			var q Queue[int]
			pushed := NewSignal(inner)
			inner.Spawn("consumer", func(c *Proc) {
				for i := 0; i < 3; i++ {
					for q.Len() == 0 {
						pushed.Wait(c)
					}
					v, _ := q.TryPop()
					got = append(got, fmt.Sprintf("r%d:%d@%d", round, v, c.Now()))
				}
			})
			inner.Spawn("producer", func(c *Proc) {
				for i := 0; i < 3; i++ {
					c.Sleep(10)
					q.Push(i)
					pushed.Signal()
				}
			})
			inner.Run()
			if inner.LiveProcs() != 0 {
				t.Errorf("round %d: inner kernel left %d live procs", round, inner.LiveProcs())
			}
			inner.Shutdown()
			got = append(got, fmt.Sprintf("outer@%d", p.Now()))
			p.Sleep(1000)
		}
	})
	outer.Spawn("bystander", func(p *Proc) {
		p.Sleep(500)
		got = append(got, fmt.Sprintf("bystander@%d", p.Now()))
	})
	outer.Run()
	want := "r0:0@10 r0:1@20 r0:2@30 outer@0 bystander@500 r1:0@10 r1:1@20 r1:2@30 outer@1000"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("got  %s\nwant %s", s, want)
	}
}
