// Command benchmark measures the simulator, its campaign runner, point
// cache and campaign daemon end to end on four workloads, checks every
// output the workload produced, and prints one JSON result line:
//
//	bash cmd/benchmark/run.sh --workload cold-campaign --seed 1 --seconds 20 --trace 0
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced
// run (-trace 1) reports the per-layer metrics instead, and writes
// spans.jsonl and cpu.pprof under <work>/trace/<workload>-seed<N>/.
// Every layer is timed from outside, through the public functions the
// workload calls. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setUps is how many times an untraced run sets its workload up; it
// reports the median as setup_s.
const setUps = 3

// workload is one benchmark workload.
type workload interface {
	// setUp prepares the state the timed loop runs against, replacing
	// the state of any earlier set-up.
	setUp() error
	// step runs the loop's next operations, one per client of the
	// workload, and traces them when tr is non-nil.
	step(tr *tracer) []sample
	// check verifies every output the run produced; it is not timed.
	check() error
	// close stops everything the workload started and removes its files.
	close()
}

// sample is one operation of a timed loop.
type sample struct {
	start, end time.Time
	failed     bool
	cpu        time.Duration // process CPU during the operation's step, per operation of it
	probe      float64       // hostProbe after the step, in seconds; 0 when not probed
}

func (s sample) dur() time.Duration { return s.end.Sub(s.start) }

// config is what every workload is built from.
type config struct {
	root    string // repository root: results/ and this command's testdata/
	dir     string // scratch directory the workload owns
	seed    int64
	workers int
}

var workloads = map[string]func(config) (workload, error){
	"cold-campaign": newColdCampaign,
	"warm-replay":   newWarmReplay,
	"fabric-1k":     newFabric1k,
	"daemon-mix":    newDaemonMix,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the simulation seed (daemon-mix's operations use the seeds after it)")
	seconds := fs.Int("seconds", 20, "length of the timed loop in seconds")
	traced := fs.Int("trace", 0, "1 = traced run: per-layer metrics plus spans.jsonl and cpu.pprof")
	root := fs.String("root", ".", "repository root (golden files under results/)")
	work := fs.String("work", ".bench_build", "directory for scratch caches, daemon state and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "benchmark: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "results")); err != nil {
		fmt.Fprintln(stderr, "benchmark: -root must be the repository root:", err)
		return 2
	}
	scratch := filepath.Join(*work, "tmp", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	defer os.RemoveAll(scratch)
	cfg := config{root: *root, dir: scratch, seed: *seed, workers: runtime.NumCPU()}
	w, err := mk(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer w.close()

	d := time.Duration(*seconds) * time.Second
	var rep *report
	if *traced == 1 {
		dir := filepath.Join(*work, "trace", fmt.Sprintf("%s-seed%d", *name, *seed))
		rep, err = measureTraced(w, d, 0, cfg.workers, dir)
		if err == nil {
			fmt.Fprintln(stderr, "benchmark: spans.jsonl and cpu.pprof in", dir)
		}
	} else {
		rep, err = measure(w, d, 0)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stderr, "benchmark: %s seed %d: %d ops, %d failed; op wall %s\n",
		*name, *seed, rep.Attempted, rep.Failed, latencies(rep.samples))
	if rep.log != "" {
		fmt.Fprintln(stderr, "benchmark:", rep.log)
	}
	if err := w.check(); err != nil {
		fmt.Fprintln(stderr, "benchmark: wrong output:", err)
		rep.Correct = false
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples []sample
	log     string // what the run measured besides its metrics, for standard error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDecl struct{ name, unit string }

// endToEnd lists the end-to-end metrics an untraced run prints.
var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
}

// newReport builds the result line of a loop: the declared metrics,
// valued from values (0 where absent).
func newReport(samples []sample, decls []metricDecl, values map[string]float64) *report {
	r := &report{Correct: true, Attempted: len(samples), Metrics: map[string]metric{}, samples: samples}
	for _, s := range samples {
		if s.failed {
			r.Failed++
		}
	}
	for _, d := range decls {
		r.Metrics[d.name] = metric{values[d.name], d.unit}
	}
	return r
}

// runLoop runs steps of w until the deadline passes or, when maxOps > 0,
// until maxOps operations have run; it runs at least one step. With
// probe set it probes the host after every step (probe.go), outside the
// step's time.
func runLoop(w workload, until time.Time, maxOps int, tr *tracer, probe bool) []sample {
	var samples []sample
	for len(samples) == 0 || (time.Now().Before(until) && (maxOps == 0 || len(samples) < maxOps)) {
		cpu0 := cpuTime()
		step := w.step(tr)
		cpu := (cpuTime() - cpu0) / time.Duration(len(step))
		var p float64
		if probe {
			p = hostProbe()
		}
		for i := range step {
			step[i].cpu, step[i].probe = cpu, p
		}
		samples = append(samples, step...)
	}
	return samples
}

// measure is an untraced run: it sets the workload up setUps times and
// runs the timed loop for d, probing the host after every set-up and
// step, and reports the end-to-end metrics. Each set-up and operation
// time is scaled by refProbe over the probe that followed it before the
// median is taken; standard error gets the unscaled medians.
func measure(w workload, d time.Duration, maxOps int) (*report, error) {
	var setups, rawSetups []float64
	for i := 0; i < setUps; i++ {
		start := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		s := time.Since(start).Seconds()
		rawSetups = append(rawSetups, s)
		setups = append(setups, s*refProbe.Seconds()/hostProbe())
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	samples := runLoop(w, time.Now().Add(d), maxOps, nil, true)
	runtime.ReadMemStats(&mem1)

	var ops, cpus, rawOps, rawCPUs, probes []float64
	for _, s := range samples {
		scale := refProbe.Seconds() / s.probe
		ops = append(ops, s.dur().Seconds()*1e3*scale)
		cpus = append(cpus, s.cpu.Seconds()*1e3*scale)
		rawOps = append(rawOps, s.dur().Seconds()*1e3)
		rawCPUs = append(rawCPUs, s.cpu.Seconds()*1e3)
		probes = append(probes, s.probe*1e3)
	}
	r := newReport(samples, endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"op_p50_ms":       median(ops),
		"cpu_ms_per_op":   median(cpus),
		"alloc_mb_per_op": float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1e6 / float64(len(samples)),
	})
	r.log = fmt.Sprintf("unscaled setup_s %.4g, op_p50_ms %.4g, cpu_ms_per_op %.4g; probe p50 %.4g ms",
		median(rawSetups), median(rawOps), median(rawCPUs), median(probes))
	return r, nil
}

// medianDur is the median operation wall in seconds.
func medianDur(samples []sample) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.dur().Seconds()
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencies describes a loop's operation walls for the log: the median,
// and the highest of p90, p99 and p99.9 with at least ten samples beyond
// it, or the maximum when none has.
func latencies(samples []sample) string {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = s.dur().Seconds() * 1e3
	}
	sort.Float64s(v)
	tail := fmt.Sprintf("max %.4g ms", v[len(v)-1])
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if float64(len(v))*(1-q) >= 10 {
			tail = fmt.Sprintf("p%g %.4g ms", q*100, v[int(math.Ceil(q*float64(len(v))))-1])
			break
		}
	}
	return fmt.Sprintf("p50 %.4g ms, %s", median(v), tail)
}

// cpuTime is the CPU time the process has used so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who or buffer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
