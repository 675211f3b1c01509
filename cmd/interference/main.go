// Command interference runs the paper's experiments on the simulated
// clusters and prints the tables/series behind every figure.
//
// The unit of scheduling is the sweep *point*: every experiment
// compiles its parameter grids (core counts, message sizes, placements,
// ...) into independent points that all -j workers execute from one
// shared pool, merging results back in index order — so output is
// byte-identical at every -j value, and a campaign dominated by one
// big sweep still uses every worker. Computed points are persisted in
// a content-addressed cache (-cache, default results/.cache) keyed by
// solver version, cluster spec, seed/runs/faults and the point's
// parameters; repeated campaigns replay unchanged points and report
// the hit rate. -no-cache disables the persistent layer (points are
// still deduplicated in memory within the campaign). A killed campaign
// needs no journal: re-running it with the same -cache replays every
// point flushed before the kill.
//
// Usage:
//
//	interference -list
//	interference -cluster henri -exp fig4
//	interference -cluster billy -exp all -format csv -o results/
//	interference -cluster henri -exp fig7 -runs 5 -seed 42
//	interference -all -j 8 -verify      # diff against results/ goldens
//	interference -all -update           # regenerate results/ goldens
//	interference -all -no-cache         # force recomputation of all points
//	interference -all -cache-stats      # campaign + cache occupancy/hit-rate recap
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fluid"
	"repro/internal/replica"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/topology"
	"repro/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment abstracted, so tests can drive the
// flag handling and exit codes directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("interference", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cluster  = fs.String("cluster", "henri", "cluster preset: henri, bora, billy or pyxis")
		specFile = fs.String("spec", "", "JSON machine spec file (overrides -cluster; see `topo -json`)")
		exp      = fs.String("exp", "", "experiment ID (fig1..fig10, tab1, sec5.2, ...) or \"all\"")
		all      = fs.Bool("all", false, "run every registered experiment (same as -exp all)")
		list     = fs.Bool("list", false, "list available experiments and exit")
		format   = fs.String("format", "ascii", "output format: ascii or csv")
		outDir   = fs.String("o", "", "write one file per experiment into this directory instead of stdout")
		seed     = fs.Int64("seed", 1, "simulation seed")
		runs     = fs.Int("runs", 3, "repetitions per configuration (decile bands)")
		jobs     = fs.Int("j", 0, "concurrent workers executing sweep points and experiments; 0 = GOMAXPROCS")
		verify   = fs.Bool("verify", false, "re-run experiments and diff against the golden files (exit 1 on drift)")
		update   = fs.Bool("update", false, "regenerate the golden files from this run")
		quiet    = fs.Bool("q", false, "suppress progress messages and the summary table")
		faults   = fs.String("faults", "", "fault schedule spec, e.g. \"loss:p=0.1;degrade:factor=0.5\" (see fault.ParseSpec); defaults -exp to the faults family")
		timeout  = fs.Duration("timeout", 0, "per-experiment wall-clock deadline; 0 disables")
		retry    = fs.Int("retry", 0, "extra attempts for a failed experiment")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (whole process: with -j>1 all workers share one profile)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file at exit (whole process: with -j>1 all workers share one profile)")
		cacheDir = fs.String("cache", "results/.cache", "persistent point cache directory (share points with other processes by pointing them, or interfd -cache-dir, at the same directory)")
		noCache  = fs.Bool("no-cache", false, "disable the persistent point cache (in-memory dedup stays on)")
		cacheTop = fs.Bool("cache-stats", false, "print the point cache's disk occupancy (pack segments, pending writes) and hit rate after the campaign (requires a -cache directory)")
		remote   = fs.String("remote", "", "comma-separated interfd base URLs (e.g. http://a:7077,http://b:7077): submit the campaign to a healthy replica instead of executing locally, failing over on errors")
		chaosStr = fs.String("chaos", "", "chaos schedule injected into daemon HTTP traffic, e.g. \"refuse:p=0.2;http:status=503,p=0.1\" (requires -remote)")
		chaosSd  = fs.Int64("chaos-seed", 1, "seed for the deterministic chaos schedule (-chaos)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Which flags the user actually set (vs defaults): -remote rejects
	// local-execution flags explicitly instead of silently ignoring
	// them, and that needs to distinguish "-j 0" from an untouched -j.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *list {
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-16s %s\n", e.ID, e.Title)
			if e.Sweep != "" {
				fmt.Fprintf(stdout, "%-16s   %s\n", "", e.Sweep)
			}
		}
		return 0
	}
	if *remote != "" {
		// Everything below is a local-execution setting: the daemon owns
		// worker counts, caching, durability and scheduling. Fail loudly
		// rather than letting a flag be silently meaningless.
		for _, bad := range []struct {
			name string
			why  string
		}{
			{"j", "the daemon sizes its own worker shards"},
			{"cache", "the daemon owns the point cache"},
			{"no-cache", "the daemon owns the point cache"},
			{"cache-stats", "the daemon owns the point cache"},
			{"timeout", "the daemon runs each experiment once, bounded only by its -campaign-timeout"},
			{"retry", "the daemon runs each experiment once, with no retries"},
			{"update", "goldens must be regenerated by a local run (the solver's differential oracle only arms locally)"},
			{"cpuprofile", "nothing executes locally under -remote"},
			{"memprofile", "nothing executes locally under -remote"},
		} {
			if explicit[bad.name] {
				fmt.Fprintf(stderr, "interference: -%s cannot be combined with -remote: %s\n", bad.name, bad.why)
				return 2
			}
		}
	}
	cacheURL := strings.HasPrefix(*cacheDir, "http://") || strings.HasPrefix(*cacheDir, "https://")
	if *cacheTop && (*noCache || cacheURL) {
		fmt.Fprintln(stderr, "interference: -cache-stats requires a local directory -cache (disk occupancy is a local-cache concept)")
		return 2
	}
	if cacheURL {
		// A daemon's points are shared by submitting to it, or by
		// pointing -cache and interfd -cache-dir at one directory; a URL
		// here would otherwise be opened as a relative directory path.
		fmt.Fprintf(stderr, "interference: -cache takes a directory, not a URL: submit to the daemon with -remote %s, or point -cache and interfd -cache-dir at one directory\n",
			*cacheDir)
		return 2
	}
	// Chaos only makes sense where there is network traffic to disturb:
	// a remote submission. Local simulation is deterministic by
	// construction; refusing -chaos there keeps "my run was chaos-free"
	// an invariant rather than a hope.
	var chaosRT http.RoundTripper
	if *chaosStr != "" {
		if *remote == "" {
			fmt.Fprintln(stderr, "interference: -chaos requires -remote (it injects faults into daemon traffic)")
			return 2
		}
		sched, err := chaos.ParseSpec(*chaosStr)
		if err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			return 2
		}
		chaosRT = &chaos.Transport{Inj: chaos.NewInjector(*chaosSd, sched)}
		if !*quiet {
			fmt.Fprintf(stderr, "interference: CHAOS ACTIVE: injecting %q with seed %d into daemon traffic\n",
				sched, *chaosSd)
		}
	} else if explicit["chaos-seed"] {
		fmt.Fprintln(stderr, "interference: -chaos-seed without -chaos has no schedule to seed")
		return 2
	}
	if *jobs == 0 {
		*jobs = runtime.GOMAXPROCS(0)
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "interference: -j %d is invalid: need at least one worker (or 0 for GOMAXPROCS)\n", *jobs)
		return 2
	}
	if *retry < 0 {
		fmt.Fprintf(stderr, "interference: -retry %d is invalid: need a non-negative attempt count\n", *retry)
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintf(stderr, "interference: -timeout %v is invalid: need a non-negative duration\n", *timeout)
		return 2
	}
	if *verify && *update {
		fmt.Fprintln(stderr, "interference: -verify and -update are mutually exclusive")
		return 2
	}
	if *faults != "" && (*verify || *update) {
		fmt.Fprintln(stderr, "interference: -faults cannot be combined with -verify/-update (goldens are recorded under the built-in schedules)")
		return 2
	}
	if (*verify || *update) && *format != "ascii" {
		fmt.Fprintln(stderr, "interference: golden files are ascii; -format", *format, "cannot be combined with -verify/-update")
		return 2
	}
	// Profiles cover the whole process by design: experiment workers are
	// goroutines in this process, so with -j>1 the profile aggregates
	// every worker rather than attributing samples per experiment. That
	// is the useful view for solver/kernel hot-spot hunting; per-
	// experiment attribution falls out of the pprof call graph anyway
	// (each experiment enters through its own registered function).
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(stderr, "interference:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "interference:", err)
			}
		}()
	}
	if *verify && *remote == "" {
		// Golden verification also arms the solver's differential oracle:
		// every incremental re-solve is shadowed by the reference solver
		// and any disagreement panics, so a -verify pass certifies both
		// the rendered bytes and the allocation math behind them. Under
		// -remote nothing simulates locally — the verification is then a
		// pure byte comparison of the daemon's output against the goldens.
		fluid.SetDifferential(true)
	}
	if *all {
		*exp = "all"
	}
	if *exp == "" && *faults != "" {
		*exp = "faults"
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "interference: -exp or -all is required (or -list); e.g. -exp fig4")
		return 2
	}
	env, err := core.Env(*cluster, *seed, *runs)
	if err != nil {
		fmt.Fprintln(stderr, "interference:", err)
		return 2
	}
	if *specFile != "" {
		spec, err := topology.LoadSpecFile(*specFile)
		if err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			return 2
		}
		env.Spec = spec
		*cluster = spec.Name
	}

	if *faults != "" {
		sched, err := fault.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			return 2
		}
		env.Faults = sched
	}

	var todo []core.Experiment
	switch *exp {
	case "all":
		todo = core.Experiments()
	case "faults":
		for _, id := range core.FaultFamily() {
			e, _ := core.ByID(id)
			todo = append(todo, e)
		}
	default:
		e, ok := core.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "interference: unknown experiment %q; valid IDs: %s\n",
				*exp, strings.Join(experimentIDs(), ", "))
			return 2
		}
		todo = []core.Experiment{e}
	}

	// The golden directory: -o when given, the checked-in results/
	// otherwise.
	goldenDir := *outDir
	if goldenDir == "" {
		goldenDir = "results"
	}

	failed := 0
	var done []runner.Result
	stats := &runner.CacheStats{}
	cacheLabel := "persistent cache disabled"
	var results <-chan runner.Result
	var localCache *runner.PointCache
	var remoteResp *server.CampaignResponse
	var replicaSet *replica.Set
	if *remote != "" {
		urls, err := replica.ParseList(*remote)
		if err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			return 2
		}
		replicaSet = replica.NewSet(urls, replica.Options{Transport: chaosRT})
		var inline *topology.NodeSpec
		if *specFile != "" {
			inline = env.Spec
		}
		results, remoteResp, err = submitRemote(replicaSet, inline, *cluster, todo, *seed, *runs, *format, *faults, stats)
		if err != nil {
			fmt.Fprintln(stderr, "interference:", err)
			return 1
		}
		cacheLabel = "remote: " + *remote
	} else {
		opts := runner.Options{
			Workers: *jobs, Format: *format, Deadline: *timeout, Retries: *retry,
			CacheStats: stats,
		}
		if !*noCache {
			cache, err := runner.OpenPointCache(*cacheDir)
			if err != nil {
				fmt.Fprintln(stderr, "interference:", err)
				return 2
			}
			opts.Cache = cache
			localCache = cache
			cacheLabel = *cacheDir
		}
		results = runner.Run(env, todo, opts)
	}
	for res := range results {
		done = append(done, res)
		if res.Err != nil {
			failed++
			fmt.Fprintf(stderr, "interference: %s: %v\n", res.Exp.ID, res.Err)
			continue
		}
		switch {
		case *verify:
			if err := runner.VerifyGolden(goldenDir, *cluster, res); err != nil {
				failed++
				fmt.Fprintln(stdout, err)
			}
		case *update:
			if err := runner.UpdateGolden(goldenDir, *cluster, res); err != nil {
				failed++
				fmt.Fprintf(stderr, "interference: %s: %v\n", res.Exp.ID, err)
			}
		case *outDir != "":
			ext := ".txt"
			if *format == "csv" {
				ext = ".csv"
			}
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(stderr, "interference:", err)
				return 1
			}
			path := filepath.Join(*outDir, fmt.Sprintf("%s-%s%s", res.Exp.ID, *cluster, ext))
			if err := os.WriteFile(path, []byte(res.Rendered), 0o644); err != nil {
				fmt.Fprintln(stderr, "interference:", err)
				return 1
			}
		default:
			fmt.Fprint(stdout, res.Rendered)
			fmt.Fprintln(stdout)
		}
		if !*quiet {
			line := fmt.Sprintf("%s on %s done in %v (wall), %.3gs simulated across %d worlds",
				res.Exp.ID, *cluster, res.Metrics.Wall.Round(time.Millisecond),
				res.Metrics.SimSeconds, res.Metrics.Worlds)
			if res.Cached {
				line = fmt.Sprintf("%s on %s replayed from the point cache (%.3gs simulated across %d worlds)",
					res.Exp.ID, *cluster, res.Metrics.SimSeconds, res.Metrics.Worlds)
			}
			if ft := res.Metrics.Faults; ft.Any() {
				line += fmt.Sprintf("; faults: %.0f retries, %.0f timeouts, %.0f lost, %.0f corrupted",
					ft.SendRetries, ft.SendTimeouts+ft.RecvTimeouts, ft.MsgsLost, ft.MsgsCorrupted)
				if ft.PeerDeaths > 0 || ft.TasksReexecuted > 0 || ft.RollbackIters > 0 || ft.Checkpoints > 0 {
					line += fmt.Sprintf("; crashes: %.0f deaths seen, %.0f tasks re-executed, %.0f iters rolled back, %.0f checkpoints, %.2fms recovering",
						ft.PeerDeaths, ft.TasksReexecuted, ft.RollbackIters, ft.Checkpoints, ft.RecoverySecs*1e3)
				}
			}
			fmt.Fprintln(stderr, line)
		}
	}
	if localCache != nil {
		// The cache is write-behind: stored points sit in a pending
		// buffer until a pack segment flushes. Close here so this
		// campaign's records survive into the next invocation. A flush
		// failure forfeits future hits, never correctness — warn, keep
		// the exit code.
		if err := localCache.Close(); err != nil {
			fmt.Fprintf(stderr, "interference: cache flush warning: %v\n", err)
		}
	}
	if !*quiet && len(done) > 1 {
		fmt.Fprintln(stderr)
		if err := core.WriteTables(stderr, "ascii", []*trace.Table{runner.Summary(done)}); err != nil {
			fmt.Fprintln(stderr, "interference:", err)
		}
	}
	if !*quiet && stats.Points() > 0 {
		line := fmt.Sprintf("point cache: %d points, %d disk hits, %d memo hits, %d computed (%.0f%% served without executing)",
			stats.Points(), stats.Hits, stats.MemoHits, stats.Misses, stats.HitRate()*100)
		if stats.FlightHits > 0 {
			line += fmt.Sprintf("; %d shared with concurrent clients", stats.FlightHits)
		}
		if stats.Mismatches > 0 || stats.Errors > 0 {
			line += fmt.Sprintf("; %d key mismatches, %d I/O errors", stats.Mismatches, stats.Errors)
		}
		if sk := atomic.LoadInt64(&stats.Skipped); sk > 0 {
			line += fmt.Sprintf("; %d cache ops skipped", sk)
		}
		line += " [" + cacheLabel + "]"
		fmt.Fprintln(stderr, line)
	}
	if *cacheTop && localCache != nil {
		// Explicitly requested, so it prints even under -q. Runs after
		// Close: the occupancy shown is what the next invocation finds.
		ds := localCache.DiskStats()
		fmt.Fprintf(stderr, "cache disk: %d pack segment(s) holding %d record(s), %d pending write(s)\n",
			ds.Packs, ds.PackedEntries, ds.PendingEntries)
		fmt.Fprintf(stderr, "cache hit rate: %.0f%% (%d of %d points served without executing)\n",
			stats.HitRate()*100, stats.Points()-atomic.LoadInt64(&stats.Misses), stats.Points())
	}
	if !*quiet && replicaSet != nil {
		b := replicaSet.Budget()
		if replicaSet.Failovers() > 0 || replicaSet.Retried() > 0 || b.Denied() > 0 {
			fmt.Fprintf(stderr, "replica set: %d failover(s), %d retried submission(s); retry budget granted %d, refused %d\n",
				replicaSet.Failovers(), replicaSet.Retried(), b.Allowed(), b.Denied())
		}
	}
	if atomic.LoadInt64(&stats.Degraded) > 0 || (remoteResp != nil && remoteResp.Degraded) {
		fmt.Fprintln(stderr, "interference: WARNING: campaign degraded to no-cache mode after repeated cache failures (results are correct, recomputed)")
	}
	if remoteResp != nil && remoteResp.TimedOut {
		fmt.Fprintln(stderr, "interference: WARNING: the daemon's campaign deadline expired; failed experiments above were cancelled")
	}
	if failed > 0 {
		// Recap after the summary table, so a long campaign's failures
		// are visible without scrolling back through the stream.
		fmt.Fprintf(stderr, "\ninterference: %d of %d experiments failed:\n", failed, len(done))
		for _, res := range done {
			if res.Err != nil {
				fmt.Fprintf(stderr, "  %-16s %v (after %d attempt(s))\n", res.Exp.ID, res.Err, res.Metrics.Attempts)
			}
		}
		return 1
	}
	return 0
}

// experimentIDs lists every registered experiment ID in order.
func experimentIDs() []string {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
