package sim

import "testing"

// Harness microbenchmarks: event throughput and process switch cost of
// the simulation kernel itself (wall time, not simulated time).

func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	for i := 0; i < b.N; i++ {
		k.After(Duration(i%1000), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkEventChurn measures the steady-state schedule→fire cycle,
// the pattern the fluid model's completion timer and the MPI layer's
// timeouts generate. With event pooling this is allocation-free.
func BenchmarkEventChurn(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, fn)
		k.Step()
	}
}

// BenchmarkEventCancelPaperScale measures schedule+cancel against a
// paper-scale backlog of pending events (~256: every rank's watchdog
// and retransmission timer in a 16-node × 16-rank campaign world).
func BenchmarkEventCancelPaperScale(b *testing.B) {
	k := NewKernel(1)
	fn := func() {}
	for i := 0; i < 256; i++ {
		k.After(Duration(1e15+i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := k.After(Duration(1e9+i%1000), fn)
		k.Cancel(r)
	}
}

// BenchmarkProcessSwitch measures a Sleep that goes through the event
// queue: two processes whose wakeups tie, so each wakes behind the
// other's and every Sleep queues an event and switches coroutines.
func BenchmarkProcessSwitch(b *testing.B) {
	k := NewKernel(1)
	n := 0
	body := func(p *Proc) {
		for n < b.N {
			n++
			p.Sleep(1)
		}
	}
	k.Spawn("a", body)
	k.Spawn("b", body)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	if k.Resumes() < uint64(b.N) {
		b.Fatalf("%d resumes for %d sleeps: sleeps ended in place", k.Resumes(), b.N)
	}
}

// BenchmarkSleepInPlace measures a lone sleeper, whose wakeup is always
// the next event: each Sleep ends in place, with no event and no switch.
func BenchmarkSleepInPlace(b *testing.B) {
	k := NewKernel(1)
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

func BenchmarkSignalWake(b *testing.B) {
	k := NewKernel(1)
	s := NewSignal(k)
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Wait(p)
		}
	})
	k.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Signal()
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}
