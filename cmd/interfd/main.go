// Command interfd is the campaign daemon: a long-lived HTTP/JSON
// service that executes simulation campaigns for many concurrent
// clients. Clients submit campaign specs with `interference -remote`
// (or raw POSTs to /campaign); a bounded admission queue schedules them
// Slurm-style, sweep points fan out across a server-wide worker-shard
// set, and results are served from a content-addressed cache that
// deduplicates work across clients — identical points are computed once,
// ever, no matter how many clients ask.
//
// Usage:
//
//	interfd                              # listen on :7077, state under interfd-data/
//	interfd -addr :9000 -shards 8
//	interfd -data /var/lib/interfd -queue 128 -inflight 4
//	interfd -cache-dir /mnt/shared/points        # replicas dedupe via shared storage
//	interfd -chaos "enospc:p=0.05" -chaos-seed 7   # fault drill
//
// The daemon is crash-safe: accepted campaigns are logged before they
// run, computed points land in the content-addressed point cache (the
// only layer that replays results), and on restart unfinished campaigns
// re-execute (cached points replay), so a re-submitted spec is served
// from the cache with byte-identical output.
//
// SIGINT/SIGTERM trigger a graceful drain: admission closes (new
// campaigns get 503, /healthz and /readyz report draining), in-flight
// campaigns run to completion within -drain-timeout, durability logs
// are flushed, and the process exits 0. Campaigns that outlive the
// drain window are simply re-run on the next start, exactly like a
// hard kill.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("interfd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":7077", "listen address")
		data      = fs.String("data", "interfd-data", "data directory (point cache + durability state); \"\" disables persistence")
		cacheDir  = fs.String("cache-dir", "", "point-cache directory override (default <data>/cache); point replicas at shared storage so computed points are deduplicated fleet-wide")
		shards    = fs.Int("shards", 0, "worker shards executing sweep points; 0 = GOMAXPROCS")
		queue     = fs.Int("queue", 64, "admission queue depth: campaigns waiting beyond this are rejected with 503")
		inflight  = fs.Int("inflight", 2, "campaigns executing concurrently (their points share the shard set)")
		maxRuns   = fs.Int("max-runs", 64, "largest per-configuration repetition count a client may request")
		drain     = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain window on SIGINT/SIGTERM: in-flight campaigns get this long to finish")
		campTO    = fs.Duration("campaign-timeout", 0, "per-campaign execution deadline; expired campaigns fail their remaining experiments (0 disables)")
		chaosSpec = fs.String("chaos", "", "chaos schedule injected into the daemon's filesystem, e.g. \"enospc:p=0.05;torn:p=0.01\" (fault drills; see internal/chaos)")
		chaosSeed = fs.Int64("chaos-seed", 1, "seed for the deterministic chaos schedule (-chaos)")
		quiet     = fs.Bool("q", false, "suppress per-campaign log lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shards < 0 || *queue < 1 || *inflight < 1 || *maxRuns < 1 || *drain < 0 || *campTO < 0 {
		fmt.Fprintln(stderr, "interfd: -shards must be >= 0, -queue/-inflight/-max-runs >= 1 and timeouts non-negative")
		return 2
	}

	cfg := server.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		MaxInflight:     *inflight,
		MaxRuns:         *maxRuns,
		CampaignTimeout: *campTO,
	}
	if !*quiet {
		cfg.Log = stderr
	}
	if *data != "" {
		cfg.CacheDir = filepath.Join(*data, "cache")
		cfg.StateDir = filepath.Join(*data, "state")
	}
	if *cacheDir != "" {
		cfg.CacheDir = *cacheDir
	}
	if *chaosSpec != "" {
		sched, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			fmt.Fprintln(stderr, "interfd:", err)
			return 2
		}
		cfg.FS = chaos.Flaky(chaos.OS(), chaos.NewInjector(*chaosSeed, sched))
		fmt.Fprintf(stderr, "interfd: CHAOS ACTIVE: injecting %q with seed %d into the filesystem\n",
			sched, *chaosSeed)
	}
	s, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "interfd:", err)
		return 1
	}
	defer s.Close()
	if n := s.Recovering(); n > 0 {
		fmt.Fprintf(stderr, "interfd: resuming %d unfinished campaign(s) from %s\n", n, *data)
	}

	// Subscribe to signals before the listener opens so a SIGTERM racing
	// startup still drains instead of killing the process mid-boot.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "interfd:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stderr, "interfd: serving on %s (%d shards, queue %d, %d in-flight)\n",
		ln.Addr(), s.Shards(), *queue, *inflight)

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "interfd:", err)
		return 1
	case sig := <-sigc:
		fmt.Fprintf(stderr, "interfd: %v: draining (timeout %v)\n", sig, *drain)
		// Order matters: stop admission first so /campaign 503s and the
		// queue can only shrink, then unwind the HTTP server (in-flight
		// request handlers are the campaigns we are waiting for), then
		// wait for the queue itself and flush the durability logs.
		s.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(stderr, "interfd:", err)
		}
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintf(stderr, "interfd: %v; unfinished campaigns resume on next start\n", err)
		}
		if err := s.Close(); err != nil {
			fmt.Fprintln(stderr, "interfd:", err)
		}
		fmt.Fprintln(stderr, "interfd: drained, exiting")
		return 0
	}
}
