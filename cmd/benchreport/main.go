// Command benchreport turns `go test -bench` output into BENCH_sim.json,
// the repo's committed performance trajectory, and back into benchmark
// text for benchstat.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... > bench_output.txt
//	benchreport -in bench_output.txt -out BENCH_sim.json
//	benchreport -totext BENCH_sim.json      # re-emit Go benchmark text for benchstat
//
// The JSON records ns/op, B/op, allocs/op and every b.ReportMetric
// figure of each benchmark — among them the deterministic counts CI
// ratchets (solves/slice; resumes/push; solves, events and resumes per
// campaign) —
// plus the optimized-vs-reference solver ratios the acceptance bar
// tracks.
// End-to-end walls are cmd/benchmark's job, not this file's.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark's measured costs.
type Benchmark struct {
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds the benchmark's b.ReportMetric figures keyed by unit
	// (e.g. "solves/slice", which CI ratchets for BenchmarkStreamLoop).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_sim.json schema. Schema 7 keeps only what `go test
// -bench` measures; schemas 2–6 also carried one-shot campaign, server,
// fabric and point blocks, which -totext ignores when it reads an older
// file.
type Report struct {
	Schema     int                  `json:"schema"`
	GoVersion  string               `json:"go_version"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
	// Derived holds the solver acceptance ratios: how much faster and
	// how much less allocation-hungry the incremental solver is than
	// the reference solver on the same workload.
	Derived map[string]float64 `json:"derived"`
}

// benchLine matches one `go test -bench` result line (without the -N
// GOMAXPROCS suffix): name, iterations, then value/unit pairs starting
// with ns/op — the -benchmem columns and any b.ReportMetric figures.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+ ns/op(?:\s+[\d.eE+-]+ \S+)*)\s*$`)

func main() {
	var (
		in     = flag.String("in", "bench_output.txt", "file with `go test -bench` output")
		out    = flag.String("out", "BENCH_sim.json", "report destination")
		toText = flag.String("totext", "", "convert this BENCH_sim.json to Go benchmark text on stdout and exit")
	)
	flag.Parse()
	if err := run(*in, *out, *toText); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(in, out, toText string) error {
	if toText != "" {
		return emitText(os.Stdout, toText)
	}
	benches, err := parseBench(in)
	if err != nil {
		return err
	}
	rep := Report{
		Schema:     7,
		GoVersion:  runtime.Version(),
		Benchmarks: benches,
		Derived:    derive(benches),
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchreport: %d benchmarks -> %s\n", len(benches), out)
	for _, k := range []string{"solve_speedup_vs_reference", "solve_allocs_saved_per_op",
		"churn_speedup_vs_reference", "churn_allocs_ratio"} {
		if v, ok := rep.Derived[k]; ok {
			fmt.Printf("  %s = %.2f\n", k, v)
		}
	}
	if c, ok := benches["BenchmarkCampaignCounters"]; ok {
		fmt.Printf("  campaign: %.0f solves, %.0f skips, %.0f reuses, %.0f events, %.0f resumes, %.0f points, %.0f executed, %.0f memo hits\n",
			c.Metrics["solves/campaign"], c.Metrics["skips/campaign"], c.Metrics["reuses/campaign"], c.Metrics["events/campaign"],
			c.Metrics["resumes/campaign"], c.Metrics["points/campaign"], c.Metrics["executed/campaign"], c.Metrics["memo_hits/campaign"])
	}
	return nil
}

// parseBench extracts every benchmark result line from a `go test
// -bench` output file. Duplicate names (e.g. the same benchmark from
// -count>1) keep the last occurrence.
func parseBench(path string) (map[string]Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	benches := map[string]Benchmark{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		mm := benchLine.FindStringSubmatch(sc.Text())
		if mm == nil {
			continue
		}
		var b Benchmark
		b.Iters, _ = strconv.ParseInt(mm[2], 10, 64)
		f := strings.Fields(mm[3])
		for i := 0; i+1 < len(f); i += 2 {
			v, _ := strconv.ParseFloat(f[i], 64)
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		benches[mm[1]] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return benches, nil
}

// derive computes the optimized-vs-reference solver ratios tracked by
// the acceptance bar. Alloc comparisons come in two flavours: a plain
// ratio when the optimized side still allocates, and an absolute
// allocs-saved figure when it reaches zero (a ratio against zero is
// meaningless).
func derive(b map[string]Benchmark) map[string]float64 {
	d := map[string]float64{}
	pair := func(prefix, opt, ref string) {
		o, okO := b[opt]
		r, okR := b[ref]
		if !okO || !okR || o.NsPerOp == 0 {
			return
		}
		d[prefix+"_speedup_vs_reference"] = r.NsPerOp / o.NsPerOp
		if o.AllocsPerOp > 0 {
			d[prefix+"_allocs_ratio"] = r.AllocsPerOp / o.AllocsPerOp
		} else {
			d[prefix+"_allocs_saved_per_op"] = r.AllocsPerOp
		}
	}
	pair("solve", "BenchmarkSolve", "BenchmarkSolveReference")
	pair("churn", "BenchmarkFlowChurnResolve", "BenchmarkFlowChurnResolveReference")
	return d
}

// emitText writes a BENCH_sim.json of any schema back out as Go
// benchmark text (sorted by name, fixed GOMAXPROCS suffix elided) so two
// trajectories can be compared with benchstat.
func emitText(w io.Writer, path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := rep.Benchmarks[name]
		fmt.Fprintf(w, "%s %d %.4g ns/op", name, b.Iters, b.NsPerOp)
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			fmt.Fprintf(w, " %.4g %s", b.Metrics[unit], unit)
		}
		fmt.Fprintf(w, " %.4g B/op %.4g allocs/op\n", b.BytesPerOp, b.AllocsPerOp)
	}
	return nil
}
