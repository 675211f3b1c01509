package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runCLI drives run() and returns exit code, stdout, stderr. The
// persistent point cache is disabled so tests never create the default
// results/.cache directory relative to the test working directory;
// cache-specific tests call run() themselves with -cache pointing at a
// temp dir.
func runCLI(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(append([]string{"-no-cache"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestUnknownExperimentListsValidIDs(t *testing.T) {
	code, _, stderr := runCLI("-exp", "zzz")
	if code == 0 {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(stderr, "valid IDs") {
		t.Fatalf("error does not announce the valid-ID list: %q", stderr)
	}
	for _, id := range []string{"fig1", "fig10", "tab1", "sec5.2", "ext-collectives"} {
		if !strings.Contains(stderr, id) {
			t.Fatalf("valid-ID list missing %s: %q", id, stderr)
		}
	}
}

func TestVerifyUpdateMutuallyExclusive(t *testing.T) {
	code, _, stderr := runCLI("-all", "-verify", "-update")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("stderr: %q", stderr)
	}
}

func TestGoldenModesRejectCSV(t *testing.T) {
	for _, mode := range []string{"-verify", "-update"} {
		code, _, stderr := runCLI("-all", mode, "-format", "csv")
		if code != 2 || !strings.Contains(stderr, "ascii") {
			t.Fatalf("%s -format csv: exit %d, stderr %q", mode, code, stderr)
		}
	}
}

func TestMissingExperimentFlag(t *testing.T) {
	code, _, stderr := runCLI()
	if code != 2 || !strings.Contains(stderr, "-exp") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestUnknownCluster(t *testing.T) {
	code, _, stderr := runCLI("-cluster", "atlantis", "-exp", "fig3")
	if code != 2 || !strings.Contains(stderr, "atlantis") {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
}

func TestUnknownFlag(t *testing.T) {
	if code, _, _ := runCLI("-no-such-flag"); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestListExperiments(t *testing.T) {
	code, stdout, _ := runCLI("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"fig1", "fig10", "tab1", "ext-tuner"} {
		if !strings.Contains(stdout, id) {
			t.Fatalf("-list missing %s:\n%s", id, stdout)
		}
	}
}

// TestGoldenWorkflow exercises the full loop on one cheap experiment:
// -update writes the golden, -verify passes, corrupting the golden makes
// -verify fail with a unified diff and exit 1.
func TestGoldenWorkflow(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig3", "-runs", "1", "-j", "2", "-q", "-o", dir}

	code, _, stderr := runCLI(append(args, "-update")...)
	if code != 0 {
		t.Fatalf("update failed (%d): %s", code, stderr)
	}
	golden := filepath.Join(dir, "fig3-henri.txt")
	if _, err := os.Stat(golden); err != nil {
		t.Fatal(err)
	}

	if code, _, stderr := runCLI(append(args, "-verify")...); code != 0 {
		t.Fatalf("verify failed (%d): %s", code, stderr)
	}

	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, append(data, "tampered\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCLI(append(args, "-verify")...)
	if code != 1 {
		t.Fatalf("verify of tampered golden exited %d, want 1", code)
	}
	if !strings.Contains(stdout, "@@") || !strings.Contains(stdout, "-tampered") {
		t.Fatalf("verify did not print a unified diff:\n%s", stdout)
	}
}

// TestStdoutDeterministicAcrossJobs renders one experiment to stdout at
// -j 1 and -j 4 and demands identical bytes.
func TestStdoutDeterministicAcrossJobs(t *testing.T) {
	_, out1, _ := runCLI("-exp", "sec5.2", "-runs", "1", "-j", "1", "-q")
	code, out4, _ := runCLI("-exp", "sec5.2", "-runs", "1", "-j", "4", "-q")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if out1 == "" || out1 != out4 {
		t.Fatalf("stdout differs between -j 1 and -j 4:\n%q\n%q", out1, out4)
	}
}

// TestCacheWarmRunIdenticalAndRecapped: running the same experiment
// twice against a temp cache dir yields byte-identical stdout, a cache
// recap on stderr, and a fully served second run.
func TestCacheWarmRunIdenticalAndRecapped(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-exp", "fig3", "-runs", "1", "-cache", cacheDir}
	runCached := func() (int, string, string) {
		var stdout, stderr strings.Builder
		code := run(args, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	code, cold, coldErr := runCached()
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, coldErr)
	}
	if !strings.Contains(coldErr, "point cache:") || !strings.Contains(coldErr, cacheDir) {
		t.Fatalf("no cache recap on stderr:\n%s", coldErr)
	}
	code, warm, warmErr := runCached()
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, warmErr)
	}
	if warm != cold {
		t.Fatalf("warm stdout differs from cold:\n%q\n%q", cold, warm)
	}
	if !strings.Contains(warmErr, "0 computed (100% served without executing)") {
		t.Fatalf("warm recap does not show a fully served run:\n%s", warmErr)
	}
}

// TestCacheStatsFlag: -cache-stats prints disk occupancy (pack
// segments, pending writes) and the hit rate, even under -q. A cold run
// flushes one pack at exit; a warm run is fully served.
func TestCacheStatsFlag(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-exp", "fig3", "-runs", "1", "-q", "-cache", cacheDir, "-cache-stats"}
	runCached := func() (int, string) {
		var stdout, stderr strings.Builder
		code := run(args, &stdout, &stderr)
		return code, stderr.String()
	}

	code, cold := runCached()
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, cold)
	}
	if !strings.Contains(cold, "cache disk: 1 pack segment(s)") {
		t.Fatalf("cold run did not report the flushed pack:\n%s", cold)
	}
	if !strings.Contains(cold, "0 pending write(s)") {
		t.Fatalf("cold run reports unflushed pending writes:\n%s", cold)
	}

	code, warm := runCached()
	if code != 0 {
		t.Fatalf("warm run exit %d: %s", code, warm)
	}
	m := regexp.MustCompile(`cache hit rate: 100% \((\d+) of (\d+) points served without executing\)`).FindStringSubmatch(warm)
	if m == nil || m[1] != m[2] {
		t.Fatalf("warm run not fully served:\n%s", warm)
	}
}

// TestCacheStatsNeedsLocalCache: disk occupancy is a local-cache
// concept; -cache-stats with -no-cache or a URL -cache is a usage
// error. -cache takes only a directory: a daemon URL there is refused
// with a pointer to -remote, never opened as a relative path.
func TestCacheStatsNeedsLocalCache(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cache-stats", "-no-cache"}, "-cache-stats"},
		{[]string{"-cache-stats", "-cache", "http://localhost:1"}, "-cache-stats"},
		{[]string{"-cache", "http://localhost:1"}, "-remote http://localhost:1"},
		{[]string{"-cache", "https://localhost:1"}, "-remote https://localhost:1"},
	} {
		var stdout, stderr strings.Builder
		code := run(append([]string{"-exp", "fig3"}, tc.args...), &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Fatalf("%v: exit %d, stderr %q (want %q)", tc.args, code, stderr.String(), tc.want)
		}
	}
}

// TestCacheResumesKilledCampaign: a killed campaign needs no journal.
// A subset campaign stands in for the run that was killed; re-running
// the superset on the same -cache prints exactly what an uncached run
// prints, replays every point the subset flushed, and computes only the
// rest.
func TestCacheResumesKilledCampaign(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	cached := func(exp string) (string, string) {
		var stdout, stderr strings.Builder
		if code := run([]string{"-exp", exp, "-runs", "1", "-j", "2", "-cache", cacheDir}, &stdout, &stderr); code != 0 {
			t.Fatalf("-exp %s: exit %d: %s", exp, code, stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	code, want, uncachedErr := runCLI("-exp", "faults", "-runs", "1", "-j", "2")
	if code != 0 || want == "" {
		t.Fatalf("uncached campaign: exit %d: %s", code, uncachedErr)
	}
	total := recapCount(t, uncachedErr, "computed")

	_, partialErr := cached("faults-overlap")
	flushed := recapCount(t, partialErr, "computed")
	if flushed == 0 || flushed >= total {
		t.Fatalf("subset computed %d of the superset's %d points; want a strict, non-empty subset", flushed, total)
	}

	got, stderr := cached("faults")
	if got != want {
		t.Fatalf("re-run on the cache differs from an uncached run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	if hits, computed := recapCount(t, stderr, "disk hits"), recapCount(t, stderr, "computed"); hits != flushed || computed != total-flushed {
		t.Fatalf("re-run: %d disk hits, %d computed; want %d replayed and only the %d new points computed:\n%s",
			hits, computed, flushed, total-flushed, stderr)
	}
}

// recapCount reads "<n> <what>" from the point-cache recap line.
func recapCount(t *testing.T, stderr, what string) int {
	t.Helper()
	m := regexp.MustCompile(`point cache: .*?(\d+) ` + what).FindStringSubmatch(stderr)
	if m == nil {
		t.Fatalf("no %q in the point-cache recap:\n%s", what, stderr)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// -journal, -resume and -compact are gone — the point cache does their
// job — so each is a usage error, alone or next to the golden modes.

// expectUndefinedFlag runs the CLI and demands exit 2 with the flag
// package's "not defined" error naming flag.
func expectUndefinedFlag(t *testing.T, flag string, args ...string) {
	t.Helper()
	code, _, stderr := runCLI(args...)
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag) {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
	}
}

func TestResumeRequiresJournal(t *testing.T) {
	expectUndefinedFlag(t, "-resume", "-exp", "sec5.2", "-resume")
}

func TestJournalRejectedWithGoldenModes(t *testing.T) {
	expectUndefinedFlag(t, "-journal", "-exp", "sec5.2", "-journal", "j.jsonl")
	for _, mode := range []string{"-verify", "-update"} {
		expectUndefinedFlag(t, "-journal", "-exp", "sec5.2", "-journal", "j.jsonl", mode)
	}
}

func TestCompactFlag(t *testing.T) {
	expectUndefinedFlag(t, "-compact", "-exp", "fig3", "-compact")
}

// TestNoCacheSuppressesRecap: -no-cache must not print a persistent
// cache directory (runCLI prepends -no-cache).
func TestNoCacheSuppressesRecap(t *testing.T) {
	code, _, stderr := runCLI("-exp", "fig3", "-runs", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if strings.Contains(stderr, "results/.cache") {
		t.Fatalf("-no-cache run mentions the cache dir:\n%s", stderr)
	}
	if !strings.Contains(stderr, "persistent cache disabled") {
		t.Fatalf("recap does not note the disabled cache:\n%s", stderr)
	}
}

// TestProfilingFlags runs a small experiment with -cpuprofile and
// -memprofile and checks both profiles materialise (whole-process
// profiles, valid at any -j).
func TestProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	code, _, stderr := runCLI("-exp", "sec5.2", "-runs", "1", "-j", "2", "-q",
		"-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestCPUProfileUnwritable checks the flag fails cleanly when the
// profile path cannot be created.
func TestCPUProfileUnwritable(t *testing.T) {
	code, _, stderr := runCLI("-exp", "sec5.2", "-cpuprofile", filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out"))
	if code != 2 {
		t.Fatalf("exit %d, want 2: %s", code, stderr)
	}
}
