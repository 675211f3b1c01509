package sim

import "testing"

// waitTimeout is a timed wait for a process, on the continuation form:
// p queues its own wakeup with WaitTimeoutCont and parks, and the
// wakeup resumes it in the slot where it would wake from a plain Wait.
func waitTimeout(p *Proc, s *Signal, d Duration) bool {
	var w TimedWait
	c := MakeCont(p.Resume)
	s.WaitTimeoutCont(&c, d, &w)
	p.Park()
	return w.Fired()
}

func TestWaitTimeoutExpires(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var fired bool
	var woke Time
	k.Spawn("waiter", func(p *Proc) {
		fired = waitTimeout(p, s, 5*Microsecond)
		woke = p.Now()
	})
	k.Run()
	if fired {
		t.Fatal("the timed wait reported signal on a silent signal")
	}
	if woke != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5us", woke)
	}
	if s.Waiters() != 0 {
		t.Fatalf("%d waiters left after timeout", s.Waiters())
	}
}

func TestWaitTimeoutSignalWins(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var fired bool
	var woke Time
	k.Spawn("waiter", func(p *Proc) {
		fired = waitTimeout(p, s, 10*Microsecond)
		woke = p.Now()
	})
	k.Spawn("signaller", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		s.Broadcast()
	})
	k.Run()
	if !fired {
		t.Fatal("the timed wait reported timeout despite the signal firing first")
	}
	if woke != Time(3*Microsecond) {
		t.Fatalf("woke at %v, want 3us", woke)
	}
}

func TestWaitTimeoutNonPositiveWaitsForever(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var fired bool
	k.Spawn("waiter", func(p *Proc) { fired = waitTimeout(p, s, 0) })
	k.Spawn("signaller", func(p *Proc) {
		p.Sleep(Second)
		s.Broadcast()
	})
	k.Run()
	if !fired {
		t.Fatal("WaitTimeoutCont(0) must behave as Wait and report the signal")
	}
}

func TestWaitTimeoutReleasesOnlyTheExpiredWaiter(t *testing.T) {
	k := NewKernel(1)
	s := NewSignal(k)
	var impatient, patient bool
	k.Spawn("impatient", func(p *Proc) { impatient = waitTimeout(p, s, 2*Microsecond) })
	k.Spawn("patient", func(p *Proc) { patient = waitTimeout(p, s, Second) })
	k.Spawn("signaller", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		s.Signal() // one wake: must go to the patient waiter
	})
	k.Run()
	if impatient {
		t.Fatal("impatient waiter reported signal after timing out")
	}
	if !patient {
		t.Fatal("patient waiter missed the signal (timed-out waiter still queued?)")
	}
}
