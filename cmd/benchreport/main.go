// Command benchreport turns `go test -bench` output plus a timed
// full-campaign run into BENCH_sim.json, the repo's committed
// performance trajectory.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... > bench_output.txt
//	benchreport -in bench_output.txt -out BENCH_sim.json
//	benchreport -totext BENCH_sim.json      # re-emit Go benchmark text for benchstat
//
// The JSON records ns/op, B/op and allocs/op for every benchmark, the
// optimized-vs-reference solver ratios the acceptance bar tracks, and a
// full golden campaign matrix run in-process: cold cache-disabled walls
// at each -jobs worker count, plus a cold and a warm pass over a fresh
// content-addressed point cache (hit rate and points/sec). -totext
// converts a (current or historical) BENCH_sim.json back into the Go
// benchmark text format, so CI can diff trajectories with benchstat.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/topology"
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

// Campaign is the timed full-golden-campaign matrix: cold cache-disabled
// walls across worker counts, plus a cold+warm pass over a fresh point
// cache.
type Campaign struct {
	Cluster     string `json:"cluster"`
	Experiments int    `json:"experiments"`
	Runs        int    `json:"runs"`
	// WallSecondsByJobs is the cold, cache-disabled campaign wall keyed
	// by worker count ("1", "4", "8"): the parallel-scaling trajectory.
	WallSecondsByJobs map[string]float64 `json:"wall_seconds_by_jobs,omitempty"`
	// Cache is the content-addressed point-cache measurement.
	Cache *CacheRun `json:"cache,omitempty"`
}

// CacheRun times the same campaign against a fresh persistent point
// cache: once cold (populating it, deduplicating shared cells through
// the campaign memo) and once warm (replaying it).
type CacheRun struct {
	Workers int `json:"workers"`
	// Points is how many sweep points the campaign requests.
	Points int64 `json:"points"`
	// Cold run: hit rate counts memo dedup only (the cache starts empty).
	ColdWallSeconds  float64 `json:"cold_wall_seconds"`
	ColdHitRate      float64 `json:"cold_hit_rate"`
	ColdPointsPerSec float64 `json:"cold_points_per_sec"`
	// Warm run: every point replays from disk or memo.
	WarmWallSeconds  float64 `json:"warm_wall_seconds"`
	WarmHitRate      float64 `json:"warm_hit_rate"`
	WarmPointsPerSec float64 `json:"warm_points_per_sec"`
}

// ServerRun is the campaign-daemon measurement: a fleet of in-process
// clients submits the full registry as individual campaigns against a
// warm interfd (cold compute happens on a seeding daemon first, so the
// percentiles measure service overhead, not simulation), then hammers
// the remote cache protocol for a throughput figure.
type ServerRun struct {
	Clients   int `json:"clients"`
	Campaigns int `json:"campaigns"`
	Shards    int `json:"shards"`
	// P50Ms/P99Ms are the daemon-side campaign latency percentiles over
	// the warm storm (queue wait included).
	P50Ms float64 `json:"server_p50_ms"`
	P99Ms float64 `json:"server_p99_ms"`
	// Deduped counts campaigns served by joining an identical in-flight
	// one instead of executing.
	Deduped int64 `json:"deduped_campaigns"`
	// CacheOps/CacheOpsPerSec measure GET /cache/{sum} round trips
	// (sha256-verified) against the daemon.
	CacheOps       int64   `json:"cache_ops"`
	CacheOpsPerSec float64 `json:"cache_ops_per_sec"`
	// Schema-4 robustness figures. ShedRate and OverloadP99Ms come from
	// a storm offered at 2x the admission queue's capacity against a
	// deliberately small daemon: the fraction of submissions shed with
	// 503 + Retry-After, and the p99 of the campaigns that were served.
	ShedRate      float64 `json:"shed_rate"`
	OverloadP99Ms float64 `json:"p99_under_2x_overload_ms"`
	// FailoverCount is the failovers a two-replica client absorbed while
	// one replica was killed mid-measurement (every campaign still
	// completed). HedgeWinFraction is the share of hedged cache reads
	// where the second replica answered first.
	FailoverCount    int64   `json:"failover_count"`
	HedgeWinFraction float64 `json:"hedge_win_fraction"`
}

// FabricRun is the schema-5 switched-fabric measurement: the scale and
// per-step incremental solve cost of the 1k-host fat-tree benchmark
// (the CI fabric job ratchets solve_ns_per_op against the sub-second
// acceptance bar), plus the multi-job interference figure — the mean
// shared/solo slowdown of three striped jobs on the fat-tree k=4 under
// both routing policies, run in-process at the golden configuration.
type FabricRun struct {
	// SolvePreset/Nodes/Links describe the benchmarked fabric
	// (fattree-k16: 1024 hosts, 6144 directed links).
	SolvePreset string `json:"solve_preset"`
	Nodes       int    `json:"nodes"`
	Links       int    `json:"links"`
	// SolveNsPerOp is BenchmarkFabricSolve1k: one start+cancel churn
	// step (two incremental component re-solves) under 512 routed flows.
	SolveNsPerOp float64 `json:"solve_ns_per_op"`
	// SlowdownPreset/SlowdownJobs identify the interference cell;
	// the two ratios are the mean per-job shared/solo slowdowns.
	SlowdownPreset           string  `json:"slowdown_preset"`
	SlowdownJobs             int     `json:"slowdown_jobs"`
	MultiJobSlowdownMinimal  float64 `json:"multi_job_slowdown_minimal"`
	MultiJobSlowdownAdaptive float64 `json:"multi_job_slowdown_adaptive"`
	// The ratios above divide each routing by its own solo run, and
	// adaptive routing speeds up the solo job too, so they can rank the
	// routings the wrong way round. MakespanMs* are the same cell's
	// shared-fabric makespans (slowest job, mean over runs) and SoloMs
	// the one baseline both are read against: the solo makespan under
	// minimal routing, the default policy.
	MakespanMsMinimal  float64 `json:"makespan_ms_minimal"`
	MakespanMsAdaptive float64 `json:"makespan_ms_adaptive"`
	SoloMs             float64 `json:"solo_ms"`
}

// PointRun is the schema-6 per-point cost block the CI ratchet tracks:
// the steady-state cost of executing one sweep point (from
// BenchmarkExecutePoint, which runs the pingpong kernel through the
// pooled-environment path) and the end-to-end cold/warm campaign walls
// against a fresh pack-segment point cache.
type PointRun struct {
	NsPerPoint     float64 `json:"ns_per_point"`
	BytesPerPoint  float64 `json:"bytes_per_point"`
	AllocsPerPoint float64 `json:"allocs_per_point"`
	// ColdCampaignSeconds duplicates campaign.cache.cold_wall_seconds
	// (and warm likewise) under a stable ratchet-friendly name: CI
	// greps these two fields and allocs_per_point.
	ColdCampaignSeconds float64 `json:"cold_campaign_seconds"`
	WarmCampaignSeconds float64 `json:"warm_campaign_seconds"`
}

// Report is the BENCH_sim.json schema. Schema 2 replaced the single
// campaign wall with the per-worker-count matrix and the cache run;
// schema 3 added the campaign-daemon run (server percentiles and remote
// cache throughput); schema 4 added the robustness figures (shed rate
// and p99 under a 2x-capacity storm, failover count under a replica
// kill, hedged-read win fraction); schema 5 added the fabric block
// (1k-host fat-tree solve cost and the multi-job slowdown ratios);
// schema 6 added the point block (per-point execution cost and the
// cold/warm campaign walls, both CI-ratcheted). Reports from schema 2
// on stay readable: -totext passes them through with the missing figures
// simply absent.
type Report struct {
	Schema     int                  `json:"schema"`
	GoVersion  string               `json:"go_version"`
	Benchmarks map[string]Benchmark `json:"benchmarks"`
	// Derived holds the solver acceptance ratios: how much faster and
	// how much less allocation-hungry the incremental solver is than
	// the reference solver on the same workload.
	Derived  map[string]float64 `json:"derived"`
	Campaign *Campaign          `json:"campaign,omitempty"`
	Server   *ServerRun         `json:"server,omitempty"`
	Fabric   *FabricRun         `json:"fabric,omitempty"`
	Point    *PointRun          `json:"point,omitempty"`
}

// benchLine matches one `go test -bench` result line (without the -N
// GOMAXPROCS suffix): name, iterations, then value/unit pairs starting
// with ns/op — the -benchmem columns and any b.ReportMetric figures.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+ ns/op(?:\s+[\d.eE+-]+ \S+)*)\s*$`)

func main() {
	var (
		in         = flag.String("in", "bench_output.txt", "file with `go test -bench` output")
		out        = flag.String("out", "BENCH_sim.json", "report destination")
		campaign   = flag.Bool("campaign", true, "also run and time the full golden campaign in-process")
		withServer = flag.Bool("server", true, "also boot an in-process campaign daemon and measure service latency and cache-protocol throughput")
		withFabric = flag.Bool("fabric", true, "also record the fabric block: 1k-host solve cost and the in-process multi-job slowdown")
		clients    = flag.Int("clients", 8, "concurrent clients for the daemon measurement")
		cluster    = flag.String("cluster", "henri", "campaign cluster preset")
		jobsList   = flag.String("jobs", "1,4,8", "comma-separated worker counts for the cold cache-disabled walls")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "worker count for the cache cold/warm runs")
		toText     = flag.String("totext", "", "convert this BENCH_sim.json to Go benchmark text on stdout and exit")
	)
	flag.Parse()

	if *toText != "" {
		if err := emitText(os.Stdout, *toText); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		return
	}

	benches, err := parseBench(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	rep := Report{
		Schema:     6,
		GoVersion:  runtime.Version(),
		Benchmarks: benches,
		Derived:    derive(benches),
	}
	if ep, ok := benches["BenchmarkExecutePoint"]; ok {
		rep.Point = &PointRun{
			NsPerPoint:     ep.NsPerOp,
			BytesPerPoint:  ep.BytesPerOp,
			AllocsPerPoint: ep.AllocsPerOp,
		}
	}
	if *campaign {
		counts, err := parseJobs(*jobsList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		c, err := timeCampaign(*cluster, counts, *jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		rep.Campaign = c
		if rep.Point != nil && c.Cache != nil {
			rep.Point.ColdCampaignSeconds = c.Cache.ColdWallSeconds
			rep.Point.WarmCampaignSeconds = c.Cache.WarmWallSeconds
		}
	}
	if *withServer {
		sr, err := timeServer(*cluster, *clients)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		rep.Server = sr
	}
	if *withFabric {
		fr, err := timeFabric(*cluster, benches)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		rep.Fabric = fr
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	fmt.Printf("benchreport: %d benchmarks -> %s\n", len(benches), *out)
	for _, k := range []string{"solve_speedup_vs_reference", "solve_allocs_saved_per_op",
		"churn_speedup_vs_reference", "churn_allocs_ratio"} {
		if v, ok := rep.Derived[k]; ok {
			fmt.Printf("  %s = %.2f\n", k, v)
		}
	}
	if c := rep.Campaign; c != nil {
		keys := make([]string, 0, len(c.WallSecondsByJobs))
		for k := range c.WallSecondsByJobs {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, _ := strconv.Atoi(keys[i])
			b, _ := strconv.Atoi(keys[j])
			return a < b
		})
		for _, k := range keys {
			fmt.Printf("  campaign: %d experiments on %s in %.2fs (j=%s, no cache)\n",
				c.Experiments, c.Cluster, c.WallSecondsByJobs[k], k)
		}
		if cr := c.Cache; cr != nil {
			fmt.Printf("  cache: cold %.2fs (%.0f pts/s, %.0f%% served), warm %.2fs (%.0f pts/s, %.0f%% served), %d points, j=%d\n",
				cr.ColdWallSeconds, cr.ColdPointsPerSec, 100*cr.ColdHitRate,
				cr.WarmWallSeconds, cr.WarmPointsPerSec, 100*cr.WarmHitRate,
				cr.Points, cr.Workers)
		}
	}
	if sr := rep.Server; sr != nil {
		fmt.Printf("  server: %d campaigns from %d clients, p50 %.2fms p99 %.2fms (%d deduped), cache protocol %.0f ops/s\n",
			sr.Campaigns, sr.Clients, sr.P50Ms, sr.P99Ms, sr.Deduped, sr.CacheOpsPerSec)
		fmt.Printf("  robustness: 2x-overload shed %.0f%% / p99 %.2fms, %d failover(s) under a replica kill, hedge wins %.0f%%\n",
			100*sr.ShedRate, sr.OverloadP99Ms, sr.FailoverCount, 100*sr.HedgeWinFraction)
	}
	if f := rep.Fabric; f != nil {
		fmt.Printf("  fabric: %s (%d hosts, %d links) solve %.0f ns/step; %s j=%d slowdown minimal %.2fx adaptive %.2fx\n",
			f.SolvePreset, f.Nodes, f.Links, f.SolveNsPerOp,
			f.SlowdownPreset, f.SlowdownJobs, f.MultiJobSlowdownMinimal, f.MultiJobSlowdownAdaptive)
		fmt.Printf("  fabric: %s j=%d makespan minimal %.3fms adaptive %.3fms against one solo baseline %.3fms (minimal routing)\n",
			f.SlowdownPreset, f.SlowdownJobs, f.MakespanMsMinimal, f.MakespanMsAdaptive, f.SoloMs)
	}
	if p := rep.Point; p != nil {
		fmt.Printf("  point: %.0f ns, %.0f B, %.0f allocs per executed point; campaign cold %.2fs warm %.2fs\n",
			p.NsPerPoint, p.BytesPerPoint, p.AllocsPerPoint,
			p.ColdCampaignSeconds, p.WarmCampaignSeconds)
	}
}

// timeFabric assembles the schema-5 fabric block: shape and solve cost
// of the benchmarked 1k-host fat-tree (the ns/op comes from the parsed
// BenchmarkFabricSolve1k line) plus the in-process multi-job slowdown
// of three striped jobs on the fat-tree k=4, the golden interference
// cell, under both routing policies.
func timeFabric(cluster string, benches map[string]Benchmark) (*FabricRun, error) {
	spec := topology.FabricPreset("fattree-k16")
	if spec == nil {
		return nil, fmt.Errorf("fabric: fattree-k16 preset missing")
	}
	fab, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	fr := &FabricRun{
		SolvePreset:    "fattree-k16",
		Nodes:          fab.NHosts,
		Links:          len(fab.Links),
		SolveNsPerOp:   benches["BenchmarkFabricSolve1k"].NsPerOp,
		SlowdownPreset: "fattree-k4",
		SlowdownJobs:   3,
	}
	env, err := core.Env(cluster, 1, 3)
	if err != nil {
		return nil, err
	}
	for _, cell := range bench.FabricInterference(env, fr.SlowdownPreset, []int{fr.SlowdownJobs}) {
		switch cell.Routing {
		case "minimal":
			fr.MultiJobSlowdownMinimal = cell.SlowdownMean
			fr.MakespanMsMinimal = cell.SharedSecs * 1e3
			fr.SoloMs = cell.AloneSecs * 1e3
		case "adaptive":
			fr.MultiJobSlowdownAdaptive = cell.SlowdownMean
			fr.MakespanMsAdaptive = cell.SharedSecs * 1e3
		}
	}
	return fr, nil
}

// parseJobs parses the -jobs list ("1,4,8") into worker counts.
func parseJobs(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-jobs: bad worker count %q", part)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("-jobs: empty list")
	}
	return counts, nil
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
	pair("churn", "BenchmarkFlowChurn", "BenchmarkFlowChurnReference")
	return d
}

// timeCampaign runs the full experiment registry in-process (the same
// configuration the goldens are recorded under: seed 1, 3 runs): once
// per worker count with the cache disabled, then cold+warm against a
// fresh point cache in a temp directory.
func timeCampaign(cluster string, jobsCounts []int, cacheJobs int) (*Campaign, error) {
	env, err := core.Env(cluster, 1, 3)
	if err != nil {
		return nil, err
	}
	todo := core.Experiments()
	c := &Campaign{
		Cluster:           cluster,
		Experiments:       len(todo),
		Runs:              3,
		WallSecondsByJobs: map[string]float64{},
	}
	for _, j := range jobsCounts {
		wall, err := runCampaign(env, todo, runner.Options{Workers: j})
		if err != nil {
			return nil, err
		}
		c.WallSecondsByJobs[strconv.Itoa(j)] = wall
	}

	dir, err := os.MkdirTemp("", "benchreport-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := runner.OpenPointCache(dir)
	if err != nil {
		return nil, err
	}
	var cold, warm runner.CacheStats
	coldWall, err := runCampaign(env, todo, runner.Options{Workers: cacheJobs, Cache: cache, CacheStats: &cold})
	if err != nil {
		return nil, err
	}
	warmWall, err := runCampaign(env, todo, runner.Options{Workers: cacheJobs, Cache: cache, CacheStats: &warm})
	if err != nil {
		return nil, err
	}
	c.Cache = &CacheRun{
		Workers:          cacheJobs,
		Points:           warm.Points(),
		ColdWallSeconds:  coldWall,
		ColdHitRate:      cold.HitRate(),
		ColdPointsPerSec: perSec(cold.Points(), coldWall),
		WarmWallSeconds:  warmWall,
		WarmHitRate:      warm.HitRate(),
		WarmPointsPerSec: perSec(warm.Points(), warmWall),
	}
	return c, nil
}

// runCampaign executes the registry once and returns the wall seconds.
func runCampaign(env bench.Env, todo []core.Experiment, opts runner.Options) (float64, error) {
	start := time.Now()
	for res := range runner.Run(env, todo, opts) {
		if res.Err != nil {
			return 0, fmt.Errorf("campaign: %s: %w", res.Exp.ID, res.Err)
		}
	}
	return time.Since(start).Seconds(), nil
}

func perSec(points int64, wall float64) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(points) / wall
}

// timeServer measures the campaign daemon. Two daemons share one cache
// directory: the first absorbs the cold compute (seeding every point),
// the second starts with a warm disk cache and a fresh latency window,
// so its percentiles measure the service itself — admission, dedup,
// cache replay, rendering — rather than first-time simulation. The
// storm submits every registry experiment as its own campaign from
// `clients` concurrent clients, then the same clients hammer the
// GET /cache/{sum} protocol over every stored entry for the throughput
// figure.
func timeServer(cluster string, clients int) (*ServerRun, error) {
	if clients < 1 {
		clients = 1
	}
	dir, err := os.MkdirTemp("", "benchreport-server-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	specs := make([]server.CampaignSpec, 0, len(core.Experiments()))
	for _, e := range core.Experiments() {
		specs = append(specs, server.CampaignSpec{
			Cluster:     cluster,
			Experiments: []string{e.ID},
			Seed:        1,
			Runs:        3,
		})
	}
	total := clients * len(specs)
	cfg := server.Config{
		CacheDir:    dir,
		Shards:      runtime.GOMAXPROCS(0),
		QueueDepth:  total + 8,
		MaxInflight: 4,
	}

	// Seeding pass: compute every point once.
	seedSrv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	seedHTTP := httptest.NewServer(seedSrv.Handler())
	for _, spec := range specs {
		if err := submitSpec(seedHTTP.URL, spec); err != nil {
			seedHTTP.Close()
			seedSrv.Close()
			return nil, err
		}
	}
	seedHTTP.Close()
	if err := seedSrv.Close(); err != nil {
		return nil, err
	}

	// Measured pass: warm daemon, concurrent clients.
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			for k := range specs {
				if err := submitSpec(ts.URL, specs[(c+k)%len(specs)]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	m := srv.Metrics()

	// Cache-protocol throughput over every stored content address.
	sums, err := cacheSums(dir)
	if err != nil {
		return nil, err
	}
	if len(sums) == 0 {
		return nil, fmt.Errorf("server measurement stored no cache entries")
	}
	const opsPerClient = 400
	start := time.Now()
	for c := 0; c < clients; c++ {
		c := c
		go func() {
			client := &http.Client{}
			for k := 0; k < opsPerClient; k++ {
				resp, err := client.Get(ts.URL + "/cache/" + sums[(c+k)%len(sums)])
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("cache GET %s: %s", sums[(c+k)%len(sums)], resp.Status)
					return
				}
			}
			errs <- nil
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	opsWall := time.Since(start).Seconds()
	ops := int64(clients * opsPerClient)

	sr := &ServerRun{
		Clients:        clients,
		Campaigns:      int(m.Campaigns.Accepted + m.Campaigns.Deduped),
		Shards:         srv.Shards(),
		P50Ms:          m.Latency.P50Ms,
		P99Ms:          m.Latency.P99Ms,
		Deduped:        m.Campaigns.Deduped,
		CacheOps:       ops,
		CacheOpsPerSec: perSec(ops, opsWall),
	}
	if err := measureOverload(dir, specs, clients, sr); err != nil {
		return nil, err
	}
	if err := measureFailoverHedge(dir, specs, sums, sr); err != nil {
		return nil, err
	}
	return sr, nil
}

// measureOverload offers a burst at 2x the admission queue's capacity
// to a deliberately small daemon over the warm cache directory. The
// campaign singleflight collapses duplicate submissions, so capacity
// is measured in *distinct* campaigns: the queue is sized at half the
// distinct spec count, making the burst a genuine 2x overload. Shed
// submissions (503) are part of the design — the figures are how many
// were shed and how fast the served ones finished.
func measureOverload(dir string, specs []server.CampaignSpec, clients int, sr *ServerRun) error {
	offered := clients * len(specs)
	queue := len(specs) / 2
	if queue < 4 {
		queue = 4
	}
	srv, err := server.New(server.Config{
		CacheDir:    dir,
		Shards:      runtime.GOMAXPROCS(0),
		QueueDepth:  queue,
		MaxInflight: 2,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var shed atomic.Int64
	errs := make(chan error, offered)
	for i := 0; i < offered; i++ {
		i := i
		go func() {
			dropped, err := submitSpecOverload(ts.URL, specs[i%len(specs)])
			if dropped {
				shed.Add(1)
			}
			errs <- err
		}()
	}
	for i := 0; i < offered; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	m := srv.Metrics()
	sr.ShedRate = float64(shed.Load()) / float64(offered)
	sr.OverloadP99Ms = m.Latency.P99Ms
	return nil
}

// submitSpecOverload posts one campaign, treating a 503 (shed with
// Retry-After by the overload controller) as a counted outcome rather
// than a failure.
func submitSpecOverload(base string, spec server.CampaignSpec) (shed bool, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return false, err
	}
	resp, err := http.Post(base+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return false, nil
	case http.StatusServiceUnavailable:
		return true, nil
	default:
		return false, fmt.Errorf("overload campaign %v: %s: %s", spec.Experiments, resp.Status, payload)
	}
}

// measureFailoverHedge runs the replica-set client against two daemons
// over the warm cache directory: one replica is killed after the first
// submission (counting the failovers the client absorbs while every
// campaign still completes), then both serve a hedged-read pass over
// the stored points for the hedge-win fraction.
func measureFailoverHedge(dir string, specs []server.CampaignSpec, sums []string, sr *ServerRun) error {
	cfg := server.Config{
		CacheDir:    dir,
		Shards:      runtime.GOMAXPROCS(0),
		QueueDepth:  2 * len(specs),
		MaxInflight: 2,
	}
	boot := func() (*server.Server, *httptest.Server, error) {
		s, err := server.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return s, httptest.NewServer(s.Handler()), nil
	}
	a, aTS, err := boot()
	if err != nil {
		return err
	}
	defer a.Close()
	defer aTS.Close()
	b, bTS, err := boot()
	if err != nil {
		return err
	}
	defer b.Close()
	defer bTS.Close()

	drill := chaos.NewReplicaDrill()
	victim := strings.TrimPrefix(aTS.URL, "http://")
	set := replica.NewSet([]string{aTS.URL, bTS.URL}, replica.Options{Transport: drill, Seed: 1})
	for i, spec := range specs {
		if _, err := set.Submit(spec, 0, ""); err != nil {
			return fmt.Errorf("failover measurement: %w", err)
		}
		if i == 0 {
			drill.Kill(victim)
		}
	}
	sr.FailoverCount = set.Failovers()

	// Hedged reads over both replicas, revived, with a hedge delay short
	// enough that reads actually race — the win fraction is how often
	// the second replica's answer arrived first.
	drill.Revive(victim)
	hedged := replica.NewCache(replica.NewSet([]string{aTS.URL, bTS.URL},
		replica.Options{Transport: drill, Seed: 1}), &runner.CacheStats{})
	hedged.SetHedgeDelay(200 * time.Microsecond)
	reads := sums
	if len(reads) > 256 {
		reads = reads[:256]
	}
	for _, sum := range reads {
		if _, _, _, ioErr := hedged.Load(sum); ioErr {
			return fmt.Errorf("hedged read of %s failed", sum)
		}
	}
	if h := hedged.Hedges(); h > 0 {
		sr.HedgeWinFraction = float64(hedged.HedgeWins()) / float64(h)
	}
	return nil
}

// submitSpec posts one campaign and demands a clean 200 with no
// experiment errors.
func submitSpec(base string, spec server.CampaignSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("campaign %v: %s: %s", spec.Experiments, resp.Status, payload)
	}
	var cr server.CampaignResponse
	if err := json.Unmarshal(payload, &cr); err != nil {
		return err
	}
	if cr.Errors != 0 {
		return fmt.Errorf("campaign %v: %d experiment errors", spec.Experiments, cr.Errors)
	}
	return nil
}

// cacheSums harvests every stored content address from a point-cache
// directory's pack segments, sorted so the read storms hit addresses in
// a deterministic order.
func cacheSums(dir string) ([]string, error) {
	cache, err := runner.OpenPointCache(dir)
	if err != nil {
		return nil, err
	}
	var sums []string
	err = cache.Entries(func(sum string, _ []byte) error {
		sums = append(sums, sum)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(sums)
	return sums, nil
}

// emitText writes a BENCH_sim.json back out as Go benchmark text
// (sorted by name, fixed GOMAXPROCS suffix elided) so two trajectories
// can be compared with benchstat.
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
	if c := rep.Campaign; c != nil {
		// Encode campaign wall times as synthetic benchmarks so they ride
		// along in the benchstat comparison.
		jkeys := make([]string, 0, len(c.WallSecondsByJobs))
		for k := range c.WallSecondsByJobs {
			jkeys = append(jkeys, k)
		}
		sort.Slice(jkeys, func(i, j int) bool {
			a, _ := strconv.Atoi(jkeys[i])
			b, _ := strconv.Atoi(jkeys[j])
			return a < b
		})
		for _, k := range jkeys {
			fmt.Fprintf(w, "BenchmarkCampaign%sJ%s 1 %.6g ns/op\n", c.Cluster, k, c.WallSecondsByJobs[k]*1e9)
		}
		if cr := c.Cache; cr != nil {
			fmt.Fprintf(w, "BenchmarkCampaign%sColdCache 1 %.6g ns/op\n", c.Cluster, cr.ColdWallSeconds*1e9)
			fmt.Fprintf(w, "BenchmarkCampaign%sWarmCache 1 %.6g ns/op\n", c.Cluster, cr.WarmWallSeconds*1e9)
		}
	}
	if sr := rep.Server; sr != nil {
		fmt.Fprintf(w, "BenchmarkServerCampaignP50 1 %.6g ns/op\n", sr.P50Ms*1e6)
		fmt.Fprintf(w, "BenchmarkServerCampaignP99 1 %.6g ns/op\n", sr.P99Ms*1e6)
		if sr.CacheOpsPerSec > 0 {
			fmt.Fprintf(w, "BenchmarkServerCacheGet %d %.6g ns/op\n", sr.CacheOps, 1e9/sr.CacheOpsPerSec)
		}
		// Schema-4 figure; pre-4 reports simply lack it (legacy
		// passthrough: nothing is printed, benchstat sees no row).
		if sr.OverloadP99Ms > 0 {
			fmt.Fprintf(w, "BenchmarkServerOverloadP99 1 %.6g ns/op\n", sr.OverloadP99Ms*1e6)
		}
	}
	if f := rep.Fabric; f != nil {
		// Schema-5 figures (BenchmarkFabricSolve1k itself already rides in
		// the benchmarks map). The slowdown rows carry dimensionless
		// ratios in the ns/op column so benchstat tracks them too; pre-5
		// reports simply lack the block and print nothing.
		if f.MultiJobSlowdownMinimal > 0 {
			fmt.Fprintf(w, "BenchmarkFabricSlowdownMinimalJ%d 1 %.6g ns/op\n", f.SlowdownJobs, f.MultiJobSlowdownMinimal)
		}
		if f.MultiJobSlowdownAdaptive > 0 {
			fmt.Fprintf(w, "BenchmarkFabricSlowdownAdaptiveJ%d 1 %.6g ns/op\n", f.SlowdownJobs, f.MultiJobSlowdownAdaptive)
		}
		// Simulated makespans, in simulated ns; absent before they were
		// recorded.
		if f.SoloMs > 0 {
			fmt.Fprintf(w, "BenchmarkFabricMakespanMinimalJ%d 1 %.6g ns/op\n", f.SlowdownJobs, f.MakespanMsMinimal*1e6)
			fmt.Fprintf(w, "BenchmarkFabricMakespanAdaptiveJ%d 1 %.6g ns/op\n", f.SlowdownJobs, f.MakespanMsAdaptive*1e6)
			fmt.Fprintf(w, "BenchmarkFabricSoloJ%d 1 %.6g ns/op\n", f.SlowdownJobs, f.SoloMs*1e6)
		}
	}
	return nil
}
