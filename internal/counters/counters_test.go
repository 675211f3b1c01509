package counters

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddExecAccumulates(t *testing.T) {
	s := NewSet(4)
	s.AddExec(0, 1000, 300, 5000, 2000)
	s.AddExec(0, 1000, 200, 5000, 2000)
	c := s.Core(0)
	if c.Cycles != 2000 || c.StallCycles != 500 || c.Flops != 10000 || c.MemBytes != 4000 {
		t.Fatalf("core 0 counters %+v", c)
	}
}

func TestStallFractionAggregatesAcrossCores(t *testing.T) {
	s := NewSet(2)
	s.AddExec(0, 100, 50, 0, 0)
	s.AddExec(1, 300, 30, 0, 0)
	// (50+30)/(100+300) = 0.2
	if got := s.StallFraction(); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("stall fraction %v, want 0.2", got)
	}
}

func TestStallFractionEmpty(t *testing.T) {
	if got := NewSet(3).StallFraction(); got != 0 {
		t.Fatalf("empty stall fraction %v", got)
	}
}

func TestSendBandwidth(t *testing.T) {
	s := NewSet(1)
	s.BytesSent = 1e9
	s.SendBusySecs = 0.5
	if got := s.SendBandwidth(); got != 2e9 {
		t.Fatalf("send bandwidth %v", got)
	}
	s2 := NewSet(1)
	if s2.SendBandwidth() != 0 {
		t.Fatal("zero busy time should report 0")
	}
}

func TestTotals(t *testing.T) {
	s := NewSet(3)
	s.AddExec(0, 1, 0, 10, 100)
	s.AddExec(1, 1, 0, 20, 200)
	s.AddExec(2, 1, 0, 30, 300)
	if s.TotalFlops() != 60 || s.TotalMemBytes() != 600 {
		t.Fatalf("totals %v %v", s.TotalFlops(), s.TotalMemBytes())
	}
}

func TestResetZeroesEverything(t *testing.T) {
	s := NewSet(2)
	s.AddExec(1, 5, 2, 3, 4)
	s.BytesSent = 9
	s.BytesReceived = 9
	s.SendBusySecs = 9
	s.Reset()
	if s.StallFraction() != 0 || s.TotalFlops() != 0 || s.BytesSent != 0 ||
		s.BytesReceived != 0 || s.SendBusySecs != 0 {
		t.Fatal("Reset left residue")
	}
}

func TestCoreOutOfRangePanics(t *testing.T) {
	s := NewSet(2)
	for _, i := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Core(%d) did not panic", i)
				}
			}()
			s.Core(i)
		}()
	}
}

// Property: stall fraction is always within [0, 1] when stall cycles
// never exceed total cycles per exec.
func TestPropertyStallFractionBounded(t *testing.T) {
	f := func(execs []uint16) bool {
		s := NewSet(1)
		for _, e := range execs {
			cycles := float64(e) + 1
			stall := cycles * float64(e%101) / 100
			if stall > cycles {
				stall = cycles
			}
			s.AddExec(0, cycles, stall, 0, 0)
		}
		sf := s.StallFraction()
		return sf >= 0 && sf <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A set whose cores never ran a slice reads zero everywhere without
// allocating its per-core array; the array then grows only up to the
// highest core touched, keeping what the lower cores accrued.
func TestUnusedSetStaysEmpty(t *testing.T) {
	s := NewSet(36)
	s.Reset()
	if s.StallFraction() != 0 || s.TotalFlops() != 0 || s.TotalMemBytes() != 0 || s.SendBandwidth() != 0 {
		t.Fatal("an unused set reads non-zero")
	}
	if s.cores != nil {
		t.Fatal("reading the sums allocated the per-core array")
	}
	s.AddExec(0, 100, 25, 0, 0)
	if len(s.cores) != 1 || cap(s.cores) != 1 {
		t.Fatalf("core 0 touched: %d cores (capacity %d), want 1", len(s.cores), cap(s.cores))
	}
	s.AddExec(2, 100, 75, 0, 0)
	if *s.Core(35) != (Core{}) || len(s.cores) != 36 || cap(s.cores) != 36 {
		t.Fatalf("core 35 touched: %d cores (capacity %d), want 36", len(s.cores), cap(s.cores))
	}
	if got := s.StallFraction(); got != 0.5 {
		t.Fatalf("stall fraction %v after growing, want 0.5", got)
	}
}
