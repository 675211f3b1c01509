package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/server"
)

// startDaemon boots an in-process interfd for the CLI to talk to.
func startDaemon(t *testing.T, cfg server.Config) string {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// TestRemoteRejectsLocalFlags: every local-execution flag must fail
// loudly when combined with -remote — a daemon-side setting silently
// ignored is a lie to the user.
func TestRemoteRejectsLocalFlags(t *testing.T) {
	cases := [][]string{
		{"-j", "4"},
		{"-cache", "somedir"},
		{"-no-cache"},
		{"-cache-stats"},
		{"-timeout", "5s"},
		{"-update"},
		{"-cpuprofile", "cpu.out"},
		{"-memprofile", "mem.out"},
	}
	for _, extra := range cases {
		args := append([]string{"-remote", "http://localhost:1", "-exp", "fig3"}, extra...)
		var stdout, stderr strings.Builder
		code := run(args, &stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", extra, code)
		}
		if !strings.Contains(stderr.String(), "cannot be combined with -remote") ||
			!strings.Contains(stderr.String(), extra[0]) {
			t.Errorf("%v: stderr does not name the conflicting flag: %q", extra, stderr.String())
		}
	}
}

// TestRemoteExplicitDefaultsStillRejected: setting a conflicting flag
// to its default value is still an explicit local-execution request and
// must be rejected, not special-cased by value.
func TestRemoteExplicitDefaultsStillRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-remote", "http://localhost:1", "-exp", "fig3", "-j", "0"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "-j cannot be combined") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
}

// TestRemoteUnreachableDaemon: a dead daemon is a runtime failure (exit
// 1) with the URL in the error, not a silent fallback to local
// execution.
func TestRemoteUnreachableDaemon(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-remote", "http://127.0.0.1:1", "-exp", "fig3", "-runs", "1", "-q"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "127.0.0.1:1") {
		t.Fatalf("error does not name the daemon: %q", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("failed remote run still produced output: %q", stdout.String())
	}
}

// TestRemoteRejectedSpec: a daemon-side 4xx surfaces to the user with
// the daemon's reason.
func TestRemoteRejectedSpec(t *testing.T) {
	url := startDaemon(t, server.Config{MaxRuns: 2})
	var stdout, stderr strings.Builder
	code := run([]string{"-remote", url, "-exp", "fig3", "-runs", "30", "-q"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "out of range") {
		t.Fatalf("daemon reason lost: %q", stderr.String())
	}
}

// TestRemoteStdoutMatchesLocal is the byte-identity contract: the same
// campaign through -remote (cold cache, then warm) and locally must
// write identical stdout — goldens and downstream tooling cannot tell
// where a campaign ran.
func TestRemoteStdoutMatchesLocal(t *testing.T) {
	url := startDaemon(t, server.Config{CacheDir: filepath.Join(t.TempDir(), "cache")})
	for _, exp := range []string{"fig3", "ext-sched"} {
		args := []string{"-exp", exp, "-runs", "1", "-seed", "1", "-q"}
		_, local, localErr := runCLI(args...)
		if local == "" {
			t.Fatalf("%s: local run produced nothing: %s", exp, localErr)
		}
		for _, phase := range []string{"cold", "warm"} {
			var stdout, stderr strings.Builder
			code := run(append([]string{"-remote", url}, args...), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s %s: exit %d: %s", exp, phase, code, stderr.String())
			}
			if stdout.String() != local {
				t.Fatalf("%s %s: remote stdout differs from local:\n got %q\nwant %q",
					exp, phase, stdout.String(), local)
			}
		}
	}
}

// TestRemoteVerifyAgainstGoldens: -verify under -remote compares the
// daemon's output against local goldens — pass on fresh goldens, exit 1
// with a diff on tampered ones.
func TestRemoteVerifyAgainstGoldens(t *testing.T) {
	url := startDaemon(t, server.Config{})
	dir := t.TempDir()
	args := []string{"-exp", "fig3", "-runs", "1", "-q", "-o", dir}

	if code, _, stderr := runCLI(append(args, "-update")...); code != 0 {
		t.Fatalf("golden update failed (%d): %s", code, stderr)
	}
	var stdout, stderr strings.Builder
	if code := run(append(append([]string{"-remote", url}, args...), "-verify"), &stdout, &stderr); code != 0 {
		t.Fatalf("remote -verify against fresh goldens failed (%d): %s%s", code, stdout.String(), stderr.String())
	}

	golden := filepath.Join(dir, "fig3-henri.txt")
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, append(data, "tampered\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	code := run(append(append([]string{"-remote", url}, args...), "-verify"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("remote -verify of tampered golden exited %d, want 1", code)
	}
	if !strings.Contains(stdout.String(), "@@") {
		t.Fatalf("remote -verify did not print a diff:\n%s", stdout.String())
	}
}

// TestRemoteRecapNamesDaemon: the cache recap under -remote credits the
// daemon, not a local directory.
func TestRemoteRecapNamesDaemon(t *testing.T) {
	url := startDaemon(t, server.Config{CacheDir: filepath.Join(t.TempDir(), "cache")})
	var stdout, stderr strings.Builder
	if code := run([]string{"-remote", url, "-exp", "fig3", "-runs", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "remote: "+url) {
		t.Fatalf("recap does not name the daemon:\n%s", stderr.String())
	}
}

// TestChaosRequiresRemoteTraffic: -chaos injects into daemon HTTP
// traffic, so it is a usage error anywhere there is none — purely local
// runs stay provably chaos-free.
func TestChaosRequiresRemoteTraffic(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig3", "-chaos", "refuse:p=1"}, "-chaos requires -remote"},
		{[]string{"-exp", "fig3", "-no-cache", "-chaos", "refuse:p=1"}, "-chaos requires -remote"},
		{[]string{"-exp", "fig3", "-chaos-seed", "3"}, "-chaos-seed without -chaos"},
		{[]string{"-remote", "http://localhost:1", "-exp", "fig3", "-chaos", "bogus:p=1"}, "chaos"},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2: %s", tc.args, code, stderr.String())
		} else if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q does not contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestChaosRefusalOnSubmission: with every connection refused, -remote
// fails cleanly (exit 1, daemon named) — proving the chaos transport is
// wired into the submission path, and that a drill failure is loud, not
// a silent local fallback.
func TestChaosRefusalOnSubmission(t *testing.T) {
	url := startDaemon(t, server.Config{})
	var stdout, stderr strings.Builder
	code := run([]string{"-remote", url, "-exp", "fig3", "-runs", "1", "-q", "-chaos", "refuse:p=1"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1: %s", code, stderr.String())
	}
	// With the failover layer the refusal surfaces either at the health
	// gate ("no replica ... is healthy") or at submission; both name the
	// daemon and neither falls back to local execution.
	if !strings.Contains(stderr.String(), "submitting campaign") &&
		!strings.Contains(stderr.String(), "is healthy") {
		t.Fatalf("refusal not surfaced as a submission error:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("refused submission still produced output: %q", stdout.String())
	}
}

// TestRemoteRetriesTransientFailure: one transient failure of the only
// -remote replica (a 503 with its Retry-After, a 500, or a response cut
// mid-body) is retried on that replica. The run exits 0, prints what a
// local run prints, and the recap reports the retried submission.
func TestRemoteRetriesTransientFailure(t *testing.T) {
	url := startDaemon(t, server.Config{CacheDir: filepath.Join(t.TempDir(), "cache")})
	args := []string{"-exp", "fig3", "-runs", "1", "-seed", "1"}
	_, local, localErr := runCLI(args...)
	if local == "" {
		t.Fatalf("local run produced nothing: %s", localErr)
	}
	recap := regexp.MustCompile(`replica set: 0 failover\(s\), 1 retried submission\(s\)`)
	for _, sched := range []string{
		"http:status=503,ops=1-1,match=/campaign",
		"http:status=500,ops=1-1,match=/campaign",
		"truncate:ops=1-1,match=/campaign",
	} {
		var stdout, stderr strings.Builder
		if code := run(append([]string{"-remote", url, "-chaos", sched}, args...), &stdout, &stderr); code != 0 {
			t.Errorf("%s: exit %d: %s", sched, code, stderr.String())
			continue
		}
		if stdout.String() != local {
			t.Errorf("%s: stdout differs from a local run:\n got %q\nwant %q", sched, stdout.String(), local)
		}
		if !recap.MatchString(stderr.String()) {
			t.Errorf("%s: recap does not report the retried submission:\n%s", sched, stderr.String())
		}
	}
}
