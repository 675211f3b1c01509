package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTimeFabricSharedBaseline checks the fabric block's makespans
// against one solo baseline. On the golden cell they show what the
// per-routing slowdown ratios hide: adaptive routing finishes first.
func TestTimeFabricSharedBaseline(t *testing.T) {
	fr, err := timeFabric("henri", map[string]Benchmark{})
	if err != nil {
		t.Fatal(err)
	}
	if fr.SoloMs <= 0 || fr.MakespanMsMinimal < fr.SoloMs || fr.MakespanMsAdaptive <= 0 {
		t.Fatalf("fabric block makespans out of shape: %+v", fr)
	}
	if fr.MakespanMsAdaptive >= fr.MakespanMsMinimal {
		t.Errorf("adaptive makespan %.3f ms not below minimal %.3f ms", fr.MakespanMsAdaptive, fr.MakespanMsMinimal)
	}
}

// TestParseBenchMetrics: result lines keep the -benchmem columns and
// every b.ReportMetric figure, whichever order go test prints them in,
// and -totext writes the figures back.
func TestParseBenchMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.txt")
	out := "goos: linux\n" +
		"BenchmarkSolve-2   \t  100000\t      1249 ns/op\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkStreamLoop-2   \t      20\t    448836 ns/op\t      1282 ns/slice\t         1.129 solves/slice\t    4426 B/op\t     106 allocs/op\n" +
		"BenchmarkFig3AVXLatency \t       1\t   4580465 ns/op\t 1.2e+02 ms-compute-4cores\n" +
		"PASS\n"
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	benches, err := parseBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if b := benches["BenchmarkSolve"]; b.NsPerOp != 1249 || b.Iters != 100000 || b.Metrics != nil {
		t.Errorf("BenchmarkSolve parsed as %+v", b)
	}
	sl := benches["BenchmarkStreamLoop"]
	if sl.NsPerOp != 448836 || sl.BytesPerOp != 4426 || sl.AllocsPerOp != 106 ||
		sl.Metrics["solves/slice"] != 1.129 || sl.Metrics["ns/slice"] != 1282 {
		t.Errorf("BenchmarkStreamLoop parsed as %+v", sl)
	}
	if b := benches["BenchmarkFig3AVXLatency"]; b.Metrics["ms-compute-4cores"] != 120 {
		t.Errorf("BenchmarkFig3AVXLatency parsed as %+v", b)
	}

	js := filepath.Join(t.TempDir(), "BENCH.json")
	buf, err := json.Marshal(Report{Schema: 6, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(js, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := emitText(&text, js); err != nil {
		t.Fatal(err)
	}
	want := "BenchmarkStreamLoop 20 4.488e+05 ns/op 1282 ns/slice 1.129 solves/slice 4426 B/op 106 allocs/op\n"
	if !strings.Contains(text.String(), want) {
		t.Errorf("-totext lacks %q:\n%s", want, text.String())
	}
}

// TestToTextCommittedTrajectory runs -totext on the committed
// BENCH_sim.json, as CI's benchstat step does: every line must be a Go
// benchmark result line (name, iterations, then value/unit pairs
// starting with ns/op), once per name, covering every recorded
// benchmark plus the synthetic campaign, server and fabric rows.
func TestToTextCommittedTrajectory(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_sim.json")
	var out strings.Builder
	if err := emitText(&out, path); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
		if !isResultLine(line) {
			t.Fatalf("-totext line is not a benchmark result: %q", line)
		}
		name := strings.Fields(line)[0]
		if rows[name] {
			t.Fatalf("-totext repeats %s", name)
		}
		rows[name] = true
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"BenchmarkCampaignhenriJ1", "BenchmarkCampaignhenriJ4", "BenchmarkCampaignhenriJ8",
		"BenchmarkCampaignhenriColdCache", "BenchmarkCampaignhenriWarmCache",
		"BenchmarkServerCampaignP50", "BenchmarkServerCampaignP99",
		"BenchmarkServerCacheGet", "BenchmarkServerOverloadP99",
		"BenchmarkFabricSlowdownMinimalJ3", "BenchmarkFabricSlowdownAdaptiveJ3",
		"BenchmarkFabricMakespanMinimalJ3", "BenchmarkFabricMakespanAdaptiveJ3", "BenchmarkFabricSoloJ3",
	}
	for name := range rep.Benchmarks {
		want = append(want, name)
	}
	for _, name := range want {
		if !rows[name] {
			t.Errorf("-totext has no %s row", name)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("-totext printed %d rows, want %d", len(rows), len(want))
	}
}

// isResultLine reports whether line has the shape benchstat parses.
func isResultLine(line string) bool {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
		return false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return false
	}
	for i := 2; i < len(f); i += 2 {
		if _, err := strconv.ParseFloat(f[i], 64); err != nil {
			return false
		}
	}
	return true
}
