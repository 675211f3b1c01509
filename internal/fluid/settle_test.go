package fluid

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
)

// Tests of the work around the arithmetic of a solve: the cap order that
// fillScan sorts only for a second round, and the one post-solve scan
// (collectDone) that yields both the due flows and the instant the
// completion timer is armed for.

// checkSettled compares the model, after a mutation, with an independent
// scan of every flow: no flow may be due, collectDone must report no due
// flow and the same next completion, the completion timer must be armed
// for that completion, counted from the instant the model last advanced
// to, or be stopped if it is beyond horizon, and the next completion the
// model keeps for a start to fold into (scanNext), if it keeps one, must
// be that completion. The check leaves scanNext as it found it, so that
// its own scan cannot stand in for one the model skipped.
func checkSettled(t *testing.T, m *Model) {
	t.Helper()
	best := math.Inf(1)
	for _, f := range m.flows {
		if endsWithin(f, completeEps) {
			t.Fatalf("flow %q is due after the mutation (remaining %v, rate %v)", f.name, f.remaining, f.rate)
		}
		if f.rate > 0 {
			best = min(best, f.remaining/f.rate)
		}
	}
	if kept := m.scanNext; kept >= 0 && math.Float64bits(kept) != math.Float64bits(best) {
		t.Fatalf("the model keeps next completion %v; the scan finds %v", kept, best)
	}
	defer func(kept float64) { m.scanNext = kept }(m.scanNext)
	done, next := m.collectDone()
	if len(done) != 0 || math.Float64bits(next) != math.Float64bits(best) {
		t.Fatalf("collectDone: %d due, next %v; the scan finds none due, next %v", len(done), next, best)
	}
	at, armed := m.next.When()
	if best > horizon {
		if armed {
			t.Fatalf("timer armed for %v, want it stopped (next completion %v s away)", at, best)
		}
		return
	}
	if want := m.lastUpdate.Add(sim.DurationOfSeconds(best)); !armed || at != want {
		t.Fatalf("timer armed %v for %v, want %v", armed, at, want)
	}
}

// TestSettleScanStorm storms random worlds, with the oracle armed, on
// every fill path, and checks the post-solve scan and the armed timer
// against an independent scan after every mutation (checkSettled). On
// the scan paths the storm must produce solves with zero, one and
// several cap rounds, so that both the first round's unsorted cap fix
// and the sorted list of the later rounds are exercised.
func TestSettleScanStorm(t *testing.T) {
	defer func() { onFillScan = nil }()
	eachFillPath(func(path string) {
		t.Run(path, func(t *testing.T) {
			var byCapRounds [3]int
			onFillScan = func(n int) { byCapRounds[min(n, 2)]++ }
			for seed := int64(0); seed < 120; seed++ {
				rng := rand.New(rand.NewSource(seed))
				k := sim.NewKernel(seed)
				m := NewModel(k)
				m.differential = true
				res, flows := randomWorld(rng, m, 1+rng.Intn(8), 1+rng.Intn(25))
				checkSettled(t, m)
				for step := 0; step < 40; step++ {
					mutate(rng, k, m, res, &flows)
					checkSettled(t, m)
				}
			}
			t.Logf("scan solves by cap rounds (0, 1, 2+): %v", byCapRounds)
			if strings.HasPrefix(path, "scan") {
				for n, c := range byCapRounds {
					if c == 0 {
						t.Fatalf("no scan solve with %d cap rounds (0, 1, 2+: %v)", n, byCapRounds)
					}
				}
			}
		})
	})
}
