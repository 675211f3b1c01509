package sim

import (
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if k.Now() != 30 {
		t.Fatalf("clock = %v, want 30", k.Now())
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestTimerWhen(t *testing.T) {
	k := NewKernel(1)
	tm := k.NewTimer(func() {})
	if _, ok := tm.When(); ok {
		t.Fatal("unarmed timer reports an instant")
	}
	tm.Arm(40)
	tm.ArmAfter(25)
	if at, ok := tm.When(); !ok || at != 25 {
		t.Fatalf("When = %v, %v; want 25, true", at, ok)
	}
	k.Run()
	if _, ok := tm.When(); ok {
		t.Fatal("fired timer reports an instant")
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	e := k.At(10, func() { ran = true })
	k.Cancel(e)
	k.Cancel(e) // double-cancel is a no-op
	k.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestKernelCancelDuringRun(t *testing.T) {
	k := NewKernel(1)
	ran := false
	var e EventRef
	e = k.At(20, func() { ran = true })
	k.At(10, func() { k.Cancel(e) })
	k.Run()
	if ran {
		t.Fatal("event cancelled at t=10 still ran at t=20")
	}
}

func TestKernelAfterAccumulates(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.After(5, func() {
		k.After(7, func() { at = k.Now() })
	})
	k.Run()
	if at != 12 {
		t.Fatalf("nested After fired at %v, want 12", at)
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var ran []Time
	for _, tt := range []Time{10, 20, 30} {
		tt := tt
		k.At(tt, func() { ran = append(ran, tt) })
	}
	k.RunUntil(25)
	if len(ran) != 2 {
		t.Fatalf("RunUntil(25) ran %d events, want 2", len(ran))
	}
	if k.Now() != 25 {
		t.Fatalf("clock = %v, want 25", k.Now())
	}
	k.RunUntil(100)
	if len(ran) != 3 || k.Now() != 100 {
		t.Fatalf("after RunUntil(100): ran=%v now=%v", ran, k.Now())
	}
}

func TestRunUntilInclusive(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.At(25, func() { ran = true })
	k.RunUntil(25)
	if !ran {
		t.Fatal("event at the RunUntil boundary did not run")
	}
}

func TestDeterminismAcrossKernels(t *testing.T) {
	trace := func(seed int64) []int {
		k := NewKernel(seed)
		var got []int
		for i := 0; i < 50; i++ {
			i := i
			d := Duration(k.Rand().Intn(100))
			k.After(d, func() { got = append(got, i) })
		}
		k.Run()
		return got
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatal("traces differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationOfSecondsNeverTruncatesPositive(t *testing.T) {
	f := func(us uint32) bool {
		s := float64(us) / 1e6
		d := DurationOfSeconds(s)
		if us == 0 {
			return d == 0
		}
		return d > 0 && float64(d) >= s*1e9-1 && float64(d) <= s*1e9+2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(1000)
	if tm.Add(500) != 1500 {
		t.Fatal("Add")
	}
	if Time(1500).Sub(tm) != 500 {
		t.Fatal("Sub")
	}
	if (2 * Microsecond).Seconds() != 2e-6 {
		t.Fatal("Seconds")
	}
	if (1500 * Nanosecond).Micros() != 1.5 {
		t.Fatal("Micros")
	}
}

func TestRandAfterResetMatchesFreshKernel(t *testing.T) {
	draws := func(k *Kernel) [3]int64 {
		return [3]int64{k.Rand().Int63(), k.Rand().Int63(), k.Rand().Int63()}
	}
	want := draws(NewKernel(7))
	k := NewKernel(3)
	draws(k)
	k.Reset(7)
	if got := draws(k); got != want {
		t.Fatalf("after Reset(7) on a used source: %v, want %v", got, want)
	}
	idle := NewKernel(3) // never drew: Reset must still seed it on first use
	idle.Reset(7)
	if got := draws(idle); got != want {
		t.Fatalf("after Reset(7) on an unseeded source: %v, want %v", got, want)
	}
}
