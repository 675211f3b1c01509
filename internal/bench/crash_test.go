package bench

import (
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCrashCGResidualMatchesHealthy pins the central fault-tolerance
// contract: the resilient CG run that loses a node mid-solve rolls back
// to its last checkpoint, re-executes the dead rank's tasks, and
// converges to the byte-identical residual of the healthy run.
func TestCrashCGResidualMatchesHealthy(t *testing.T) {
	env := quietEnv()
	healthy, hres := runCrashCG(env, nil)
	if healthy.Crashes != 0 || healthy.Survivors != 2 {
		t.Fatalf("healthy run saw crashes: %+v", healthy)
	}
	crashAt := sim.DurationOfSeconds(healthy.Elapsed.Seconds() * 0.4)
	st, res := runCrashCG(env, crashSchedule(1, crashAt))
	if res != hres {
		t.Fatalf("crash-recovered residual %s differs from healthy %s", res, hres)
	}
	if st.Crashes != 1 || st.Survivors != 1 {
		t.Fatalf("crash not reflected in stats: %+v", st)
	}
	if st.CompletedIters != healthy.CompletedIters {
		t.Fatalf("crashed run completed %d iterations, healthy %d", st.CompletedIters, healthy.CompletedIters)
	}
	if st.TasksReexec == 0 {
		t.Fatal("no tasks re-executed after the crash")
	}
	if st.RecoverySecs <= 0 {
		t.Fatal("recovery time not accounted")
	}
	if st.Elapsed <= healthy.Elapsed {
		t.Fatalf("recovery was free: crashed %v <= healthy %v", st.Elapsed, healthy.Elapsed)
	}
}

// TestCrashCGEarlyCrashRollsBack: a crash shortly after a checkpoint
// still replays from it; a crash between checkpoints pays rollback
// iterations.
func TestCrashCGRollbackAccounting(t *testing.T) {
	env := quietEnv()
	healthy, hres := runCrashCG(env, nil)
	// Late crash: most of the solve is checkpointed; some iterations
	// roll back, all of the dead rank's window re-executes.
	st, res := runCrashCG(env, crashSchedule(1, sim.DurationOfSeconds(healthy.Elapsed.Seconds()*0.8)))
	if res != hres {
		t.Fatalf("late-crash residual %s != healthy %s", res, hres)
	}
	if st.RollbackIters < 0 || st.RollbackIters > 3 {
		t.Fatalf("rollback beyond one checkpoint interval: %+v", st)
	}
}

func TestCrashPingPongDetectionWindow(t *testing.T) {
	env := quietEnv()
	iters, detectedUs, _, status := runCrashPingPong(env, crashSchedule(1, sim.Millisecond))
	if status != "mpi: peer rank is dead" {
		t.Fatalf("status %q", status)
	}
	if iters == 0 {
		t.Fatal("no iterations completed before the crash")
	}
	// Detection: suspicion timeout measured from the last probe that saw
	// the peer up, declared on a probe tick.
	if detectedUs < 1000 || detectedUs > 1300 {
		t.Fatalf("detected at %gus, want shortly after the 1000us crash", detectedUs)
	}
	// Healthy run completes and never declares anyone dead.
	iters, detectedUs, _, status = runCrashPingPong(env, nil)
	if status != "completed" || detectedUs != 0 {
		t.Fatalf("healthy run: %d iters, detected %g, status %q", iters, detectedUs, status)
	}
}

// TestCrashPingPongReportsFailedOperations: SendFT/RecvFT return retry
// exhaustion (no detector needed) and the death of the initiator's node
// as errors, and the row reports whichever side failed instead of
// panicking or hanging. A responder that exhausts its retries stops the
// detector, so a crash of its node scheduled later is never declared.
func TestCrashPingPongReportsFailedOperations(t *testing.T) {
	for _, tc := range []struct {
		spec, status string
		iters        int
	}{
		{"loss:p=1", "fault: eager transfer n0→n1 failed after 9 attempts", 0},
		{"crash:node=0,at=1ms", "responder: mpi: peer rank is dead", 133},
		{"loss:p=0.5;crash:node=1,at=20ms", "responder: fault: eager transfer n1→n0 failed after 9 attempts", 79},
	} {
		sched, err := fault.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		iters, detectedUs, _, status := runCrashPingPong(quietEnv(), sched)
		if status != tc.status || iters != tc.iters || detectedUs != 0 {
			t.Errorf("%s: %d iters, detected at %gus, status %q; want %d, 0, %q",
				tc.spec, iters, detectedUs, status, tc.iters, tc.status)
		}
	}
}

// TestCrashTablesDeterministic: both crash experiments are pure
// functions of (spec, seed, schedule) — two renders are byte-identical.
func TestCrashTablesDeterministic(t *testing.T) {
	if CrashCG(quietEnv()).String() != CrashCG(quietEnv()).String() {
		t.Fatal("CrashCG not deterministic")
	}
	if CrashPingPong(quietEnv()).String() != CrashPingPong(quietEnv()).String() {
		t.Fatal("CrashPingPong not deterministic")
	}
}

// pointFaults runs an experiment with its points executed inline and
// sums the fault totals their records carry.
func pointFaults(exp func(Env) *trace.Table) counters.Faults {
	rr := &recordingRunner{}
	env := quietEnv()
	env.Sched = rr
	exp(env)
	var ft counters.Faults
	for _, rec := range rr.recs {
		ft.Add(rec.Faults)
	}
	return ft
}

// TestMeterCrashCounters: the crash-recovery work is accounted on the
// nodes and sealed into the point records, so the campaign summary can
// report it.
func TestMeterCrashCounters(t *testing.T) {
	ft := pointFaults(CrashCG)
	if !ft.Any() {
		t.Fatal("crash experiment left no fault totals")
	}
	if ft.PeerDeaths == 0 {
		t.Fatalf("no peer deaths recorded: %+v", ft)
	}
	if ft.TasksReexecuted == 0 || ft.Checkpoints == 0 {
		t.Fatalf("recovery work not accounted: %+v", ft)
	}
	if ft.RecoverySecs <= 0 {
		t.Fatalf("lost-progress time not accounted: %+v", ft)
	}

	ft2 := pointFaults(CrashPingPong)
	if ft2.PeerDeaths == 0 {
		t.Fatalf("ping-pong crash scenarios recorded no deaths: %+v", ft2)
	}
	if ft2.TasksReexecuted != 0 || ft2.Checkpoints != 0 {
		t.Fatalf("ping-pong has no task runtime, yet: %+v", ft2)
	}
}

// TestCrashScheduleSpecParses: the crash DSL round-trips through the
// -faults grammar the CLI exposes.
func TestCrashScheduleSpecParses(t *testing.T) {
	s := crashSchedule(1, sim.Millisecond)
	if !s.Crashy() {
		t.Fatal("crash schedule not Crashy")
	}
	if got := s.String(); !strings.Contains(got, "crash:node=1") {
		t.Fatalf("rendered spec %q", got)
	}
}
