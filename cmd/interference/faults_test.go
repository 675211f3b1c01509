package main

import (
	"strings"
	"testing"
)

func TestInvalidJobsRejected(t *testing.T) {
	for _, j := range []string{"-1", "-3"} {
		code, _, stderr := runCLI("-exp", "sec5.2", "-j", j)
		if code != 2 {
			t.Fatalf("-j %s: exit %d, want 2", j, code)
		}
		if !strings.Contains(stderr, "-j") || !strings.Contains(stderr, "worker") {
			t.Fatalf("-j %s: unhelpful error %q", j, stderr)
		}
	}
}

func TestJobsZeroMeansGOMAXPROCS(t *testing.T) {
	// -j 0 (and the unset default) resolves to GOMAXPROCS instead of
	// being rejected.
	code, _, stderr := runCLI("-exp", "sec5.2", "-j", "0", "-q", "-no-cache")
	if code != 0 {
		t.Fatalf("-j 0: exit %d, stderr %q", code, stderr)
	}
}

// TestInvalidRetryAndTimeoutRejected: a negative -timeout is rejected,
// and -retry is an unknown flag (experiments are deterministic, so a
// rerun of a failed one would fail the same way).
func TestInvalidRetryAndTimeoutRejected(t *testing.T) {
	if code, _, stderr := runCLI("-exp", "sec5.2", "-retry", "1"); code != 2 || !strings.Contains(stderr, "not defined: -retry") {
		t.Fatalf("-retry 1: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCLI("-exp", "sec5.2", "-timeout", "-5s"); code != 2 || !strings.Contains(stderr, "-timeout") {
		t.Fatalf("-timeout -5s: exit %d, stderr %q", code, stderr)
	}
}

func TestFaultsRejectedWithGoldenModes(t *testing.T) {
	for _, mode := range []string{"-verify", "-update"} {
		code, _, stderr := runCLI("-faults", "loss:p=0.1", mode)
		if code != 2 || !strings.Contains(stderr, "-faults") {
			t.Fatalf("-faults %s: exit %d, stderr %q", mode, code, stderr)
		}
	}
}

func TestBadFaultSpecRejected(t *testing.T) {
	code, _, stderr := runCLI("-faults", "explode:p=1")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown event kind") {
		t.Fatalf("stderr %q", stderr)
	}
}

// TestFaultsFlagDefaultsToFamily: -faults without -exp runs the faults
// family under the custom schedule.
func TestFaultsFlagDefaultsToFamily(t *testing.T) {
	code, stdout, stderr := runCLI("-faults", "degrade:factor=0.5", "-runs", "1", "-q")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"FAULTS — ping-pong", "FAULTS — communication/computation overlap", "custom"} {
		if !strings.Contains(stdout, want) {
			t.Fatalf("stdout missing %q:\n%s", want, stdout)
		}
	}
}

// TestDegradedCampaignPartialResults: a campaign mixing a healthy and a
// doomed experiment (total loss exhausts the retry budget) completes
// the healthy one, prints a failure recap after the summary, and exits
// non-zero.
func TestDegradedCampaignPartialResults(t *testing.T) {
	code, stdout, stderr := runCLI("-faults", "loss:p=1", "-runs", "1", "-j", "2")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	// The overlap experiment's first scenario is fault-free only for the
	// built-in sweep; under a custom total-loss schedule both experiments
	// are doomed — the campaign must still reach the recap.
	if !strings.Contains(stderr, "experiments failed:") {
		t.Fatalf("no failure recap:\n%s", stderr)
	}
	if !strings.Contains(stderr, "failed after 9 attempts") {
		t.Fatalf("recap does not carry the TransferError:\n%s", stderr)
	}
	// The summary table still renders (partial results).
	if !strings.Contains(stderr, "Runner summary") || !strings.Contains(stderr, "error") {
		t.Fatalf("no partial-results summary:\n%s", stderr)
	}
	_ = stdout
}

// TestRuntimeExperimentsFailOnTransferError: under total loss the task
// runtime's experiments fail with the exhausted retry budget's
// *fault.TransferError, both fig8, whose ping-pong initiator never waits
// for its sends, and fig10, whose application waits for every request.
func TestRuntimeExperimentsFailOnTransferError(t *testing.T) {
	for _, exp := range []string{"fig8", "fig10"} {
		code, _, stderr := runCLI("-exp", exp, "-faults", "loss:p=1", "-runs", "1")
		if code != 1 {
			t.Fatalf("%s: exit %d, want 1:\n%s", exp, code, stderr)
		}
		if !strings.Contains(stderr, "1 of 1 experiments failed") || !strings.Contains(stderr, "transfer n0→n1 failed after 9 attempts") {
			t.Fatalf("%s: recap does not carry the TransferError:\n%s", exp, stderr)
		}
	}
}

// TestFaultsStdoutDeterministicAcrossJobs pins the acceptance contract:
// fixed seed + fixed schedule produce byte-identical output at -j 1 and
// -j 8.
func TestFaultsStdoutDeterministicAcrossJobs(t *testing.T) {
	args := []string{"-exp", "faults", "-runs", "1", "-q"}
	_, out1, _ := runCLI(append(args, "-j", "1")...)
	code, out8, _ := runCLI(append(args, "-j", "8")...)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out1 == "" || out1 != out8 {
		t.Fatalf("faults output differs between -j 1 and -j 8:\n%q\n%q", out1, out8)
	}
}

// TestRetryFlagPlumbed: -timeout reaches a local campaign, which still
// finishes (the deadline is per experiment and generous, so this
// exercises flag plumbing end to end).
func TestRetryFlagPlumbed(t *testing.T) {
	code, _, stderr := runCLI("-exp", "sec5.2", "-runs", "1", "-q", "-timeout", "5m")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
}
