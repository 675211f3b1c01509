package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

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
	buf, err := json.Marshal(Report{Schema: 7, Benchmarks: benches})
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
// starting with ns/op), once per recorded benchmark and nothing else.
func TestToTextCommittedTrajectory(t *testing.T) {
	rep := checkToText(t, filepath.Join("..", "..", "BENCH_sim.json"))
	if rep.Schema != 7 {
		t.Errorf("committed BENCH_sim.json is schema %d, want 7", rep.Schema)
	}
}

// TestToTextSchema6 runs -totext on the last schema-6 trajectory: it
// still prints that file's benchmarks, and nothing of the campaign,
// server, fabric and point blocks schema 7 retired.
func TestToTextSchema6(t *testing.T) {
	rep := checkToText(t, filepath.Join("testdata", "BENCH_sim_schema6.json"))
	if rep.Schema != 6 || len(rep.Benchmarks) == 0 {
		t.Fatalf("fixture is schema %d with %d benchmarks", rep.Schema, len(rep.Benchmarks))
	}
}

// checkToText converts the report at path to text and checks that it
// holds one well-formed result line per recorded benchmark and no other
// line. It returns the decoded report.
func checkToText(t *testing.T, path string) Report {
	t.Helper()
	var out strings.Builder
	if err := emitText(&out, path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	rows := map[string]bool{}
	for _, line := range lines {
		if !isResultLine(line) {
			t.Fatalf("-totext line is not a benchmark result: %q", line)
		}
		name := strings.Fields(line)[0]
		if _, ok := rep.Benchmarks[name]; !ok || rows[name] {
			t.Fatalf("-totext prints %s, which is not a recorded benchmark or repeats", name)
		}
		rows[name] = true
	}
	if len(rows) != len(rep.Benchmarks) {
		t.Errorf("-totext printed %d rows for %d benchmarks", len(rows), len(rep.Benchmarks))
	}
	return rep
}

// TestCIGatesReadCommittedFigures extracts every `jq -e '<path>'
// BENCH_sim.json` read from the CI workflow and checks that the path
// resolves to a positive number in the committed file, so a re-record
// cannot drop a figure some CI gate reads.
func TestCIGatesReadCommittedFigures(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	gates := regexp.MustCompile(`jq -e '([^']+)' BENCH_sim\.json`).FindAllStringSubmatch(string(ci), -1)
	if len(gates) == 0 {
		t.Fatal("ci.yml reads no figure from BENCH_sim.json")
	}
	for _, g := range gates {
		v, ok := jqLookup(doc, g[1])
		if n, isNum := v.(float64); !ok || !isNum || n <= 0 {
			t.Errorf("CI reads %s from BENCH_sim.json, which holds %v there, not a positive number", g[1], v)
		}
	}
}

// jqLookup evaluates a jq path made of .field and ["field"] steps
// against decoded JSON; ok is false when a step is malformed or names a
// missing field.
func jqLookup(v any, path string) (any, bool) {
	for path != "" {
		var key string
		if rest, ok := strings.CutPrefix(strings.TrimPrefix(path, "."), `["`); ok {
			end := strings.Index(rest, `"]`)
			if end < 0 {
				return nil, false
			}
			key, path = rest[:end], rest[end+2:]
		} else if rest, ok := strings.CutPrefix(path, "."); ok {
			end := strings.IndexAny(rest, ".[")
			if end < 0 {
				end = len(rest)
			}
			key, path = rest[:end], rest[end:]
		} else {
			return nil, false
		}
		obj, ok := v.(map[string]any)
		if !ok || key == "" {
			return nil, false
		}
		if v, ok = obj[key]; !ok {
			return nil, false
		}
	}
	return v, true
}

func TestJQLookup(t *testing.T) {
	var doc any
	if err := json.Unmarshal([]byte(`{"a":{"b":2,"m":{"x/y":3}}}`), &doc); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]any{
		".a.b": 2.0, `.a.m["x/y"]`: 3.0, `.a.m.["x/y"]`: 3.0, `.["a"].b`: 2.0,
		".a.c": nil, ".a.b.c": nil, "a.b": nil, `.a.m["x/y"`: nil, ".a..b": nil,
	} {
		got, ok := jqLookup(doc, path)
		if ok != (want != nil) || got != want && ok {
			t.Errorf("jqLookup(%s) = %v, %v; want %v", path, got, ok, want)
		}
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
