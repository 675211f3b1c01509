package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// -update rewrites testdata/fabric-1k-seed1.txt from this run:
//
//	go test -run TestFabricGolden -update
var update = flag.Bool("update", false, "rewrite the fabric-1k golden file")

const repoRoot = "../.."

// small is a reduced experiment list that runs in well under a second.
var small = []string{"fabric-pingpong", "fig1", "fig3"}

func smallCampaign(t *testing.T, root string, warm bool) *campaignWorkload {
	t.Helper()
	w, err := henriCampaign(config{root: root, dir: t.TempDir(), seed: 1, workers: 2}, warm)
	if err != nil {
		t.Fatal(err)
	}
	w.exps = nil
	for _, id := range small {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		w.exps = append(w.exps, e)
	}
	return w
}

func smallDaemon(t *testing.T) *daemonWorkload {
	t.Helper()
	wl, err := newDaemonMix(config{root: repoRoot, dir: t.TempDir(), seed: 1, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*daemonWorkload)
	w.exps = small
	return w
}

// declared reads the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func printed(rep *report) []string {
	var names []string
	for n, m := range rep.Metrics {
		names = append(names, n+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// runBoth measures w untraced and traced, maxOps operations per loop,
// checks its outputs, and compares the printed metric names and units
// with BENCHMARK.json.
func runBoth(t *testing.T, w workload, maxOps int) (plain, traced *report) {
	t.Helper()
	defer w.close()
	plain, err := measure(w, time.Minute, maxOps)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plain.samples {
		if s.probe <= 0 {
			t.Errorf("untraced sample %+v was not followed by a host probe", s)
		}
	}
	traced, err = measureTraced(w, time.Minute, maxOps, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*report{plain, traced} {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("report %+v: want correct, no failures", r)
		}
	}
	if got, want := strings.Join(printed(plain), ", "), strings.Join(declared(t, "end_to_end"), ", "); got != want {
		t.Errorf("untraced run printed\n  %s\nBENCHMARK.json declares\n  %s", got, want)
	}
	if got, want := strings.Join(printed(traced), ", "), strings.Join(declared(t, "per_layer"), ", "); got != want {
		t.Errorf("traced run printed\n  %s\nBENCHMARK.json declares\n  %s", got, want)
	}
	return plain, traced
}

func TestWarmReplay(t *testing.T) {
	w := smallCampaign(t, repoRoot, true)
	_, traced := runBoth(t, w, 3)
	m := traced.Metrics
	if m["runner.executed"].Value != 0 || m["runner.cache_hits"].Value == 0 || m["cache.load_n"].Value == 0 ||
		m["cache.record_bytes"].Value == 0 {
		t.Errorf("warm replay executed points or missed the cache: %+v", m)
	}
}

func TestColdCampaign(t *testing.T) {
	w := smallCampaign(t, repoRoot, false)
	_, traced := runBoth(t, w, 3)
	m := traced.Metrics
	if m["runner.executed"].Value == 0 || m["bench.exec_frac"].Value <= 0 || m["bench.exec_frac.fig3"].Value <= 0 {
		t.Errorf("cold campaign attributed no execution: %+v", m)
	}
	if s := m["cpu.total_s"].Value; s <= 0 {
		t.Errorf("cpu.total_s = %v", s)
	}
}

func TestDaemonMix(t *testing.T) {
	w := smallDaemon(t)
	// Ten operations of two clients: twenty submissions per loop.
	plain, traced := runBoth(t, w, 10)
	if plain.Attempted != 10 {
		t.Errorf("untraced loop ran %d operations, want 10", plain.Attempted)
	}
	m := traced.Metrics
	if m["server.journal_replays"].Value == 0 || m["server.wall_frac"].Value <= 0 || m["runner.executed"].Value == 0 {
		t.Errorf("daemon mix saw no journal replays, server time or cold points: %+v", m)
	}
	if len(w.jobs) != 1+coldChecks {
		t.Errorf("kept %d campaigns for the local re-run, want %d", len(w.jobs), 1+coldChecks)
	}
}

// TestDaemonRepeatMismatchIsWrong: a repeat whose bytes differ from its
// cold submission is a wrong output, not a failed operation.
func TestDaemonRepeatMismatchIsWrong(t *testing.T) {
	w := smallDaemon(t)
	w.verify(7, []string{"a\n", "b\n"}, []string{"a\n", "c\n"})
	if err := w.check(); err == nil || !strings.Contains(err.Error(), "seed 7") {
		t.Fatalf("check after a mismatched repeat: %v, want an error naming seed 7", err)
	}
}

// TestTamperedGoldenFails: the correctness gate must reject output that
// differs from a pinned golden by a single byte.
func TestTamperedGoldenFails(t *testing.T) {
	root := t.TempDir()
	results := filepath.Join(root, "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, id := range small {
		data, err := os.ReadFile(filepath.Join(repoRoot, "results", id+"-henri.txt"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			data[len(data)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(results, id+"-henri.txt"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w := smallCampaign(t, root, false)
	defer w.close()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	if err := w.check(); err == nil || !strings.Contains(err.Error(), small[1]) {
		t.Fatalf("check with a tampered %s golden: %v, want a drift error naming it", small[1], err)
	}
}

// TestFabricGolden pins fabric-1k at seed 1.
func TestFabricGolden(t *testing.T) {
	wl, err := newFabric1k(config{root: repoRoot, dir: t.TempDir(), seed: 1, workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*campaignWorkload)
	defer w.close()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(filepath.Join(repoRoot, fabric1kGolden), []byte(w.want[0]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/fluid.(*Solver).solveScoped": "fluid",
		"repro/internal/sim.(*Proc).Wait":            "sim",
		"repro/internal/bench.ExecutePoint.func1":    "bench",
		"runtime.scanobject":                         "goruntime_gc",
		"runtime.mallocgc":                           "goruntime_gc",
		"runtime.chansend":                           "goruntime_sched",
		"runtime.findRunnable":                       "goruntime_sched",
		"sync.(*Mutex).Lock":                         "goruntime_sched",
		"runtime.casgstatus":                         "goruntime_sched",
		"internal/sync.(*Mutex).Lock":                "goruntime_sched",
		"runtime.memmove":                            "goruntime_other",
		"internal/runtime/syscall.Syscall6":          "goruntime_other",
		"aeshashbody":                                "goruntime_other",
		"encoding/json.(*decodeState).object":        "encoding_json",
		"net/http.(*conn).serve":                     "net_http",
		"net/http/httptest.(*Server).Close":          "net_http",
		"container/heap.down":                        "stdlib",
		"math/rand.(*rngSource).Seed":                "stdlib",
		"main.run":                                   "other",
		"golang.org/x/sys/unix.Syscall":              "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
