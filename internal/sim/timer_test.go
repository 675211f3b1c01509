package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refTimer re-keys its event by cancelling it and scheduling it anew:
// the behaviour Timer's in-place moves must reproduce.
type refTimer struct {
	k   *Kernel
	fn  func()
	ref EventRef
	seq uint64
}

func (t *refTimer) arm(at Time) {
	t.k.Cancel(t.ref)
	t.ref = t.k.At(at, t.fn)
	t.seq = t.ref.e.seq
}

func (t *refTimer) rearm(at Time) {
	t.k.Cancel(t.ref)
	t.ref = t.k.atSeq(at, t.seq, t.fn)
}

func (t *refTimer) reserve() {
	t.k.Cancel(t.ref)
	t.ref = EventRef{}
	t.seq = t.k.seq
	t.k.seq++
}

func (t *refTimer) stop() {
	t.k.Cancel(t.ref)
	t.ref = EventRef{}
}

// TestTimerRekeyInPlace drives timers and their cancel-and-push twins
// through random Arm, Rearm, Reserve→Rearm and Stop calls among plain
// events crowded on a few instants, stepping both kernels now and then.
// Every event must run in the same order at the same instant on both,
// and the kernels must end with the same scheduling counter and event
// pool.
func TestTimerRekeyInPlace(t *testing.T) {
	const nTimers = 4
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var logA, logB []string
		ka, kb := NewKernel(1), NewKernel(1)
		logger := func(k *Kernel, log *[]string, name string) func() {
			return func() { *log = append(*log, fmt.Sprintf("%s@%d", name, k.Now())) }
		}
		var timers [nTimers]*Timer
		var refs [nTimers]*refTimer
		for i := range timers {
			name := fmt.Sprint("timer", i)
			timers[i] = ka.NewTimer(logger(ka, &logA, name))
			refs[i] = &refTimer{k: kb, fn: logger(kb, &logB, name)}
			timers[i].Arm(Time(rng.Intn(3)))
			refs[i].arm(timers[i].ref.e.at)
		}
		for step := 0; step < 80; step++ {
			i := rng.Intn(nTimers)
			at := ka.Now().Add(Duration(rng.Intn(3)))
			switch rng.Intn(7) {
			case 0:
				timers[i].Arm(at)
				refs[i].arm(at)
			case 1:
				timers[i].Rearm(at)
				refs[i].rearm(at)
			case 2: // Reserve, other events, then Rearm
				timers[i].Reserve()
				refs[i].reserve()
				name := fmt.Sprint("event", step)
				ka.At(at, logger(ka, &logA, name))
				kb.At(at, logger(kb, &logB, name))
				timers[i].Rearm(at)
				refs[i].rearm(at)
			case 3:
				timers[i].Stop()
				refs[i].stop()
			case 4:
				name := fmt.Sprint("event", step)
				ka.At(at, logger(ka, &logA, name))
				kb.At(at, logger(kb, &logB, name))
			default:
				ka.Step()
				kb.Step()
			}
		}
		ka.Run()
		kb.Run()
		if !slices.Equal(logA, logB) {
			t.Fatalf("seed %d: in place %v, cancel and push %v", seed, logA, logB)
		}
		if ka.seq != kb.seq || len(ka.free) != len(kb.free) {
			t.Fatalf("seed %d: seq %d vs %d, %d vs %d pooled events", seed, ka.seq, kb.seq, len(ka.free), len(kb.free))
		}
	}
}
