// Package server turns the campaign runner into a long-lived service:
// clients POST campaign specs (experiments × cluster × faults × seed ×
// runs) to an HTTP/JSON daemon, a bounded admission queue schedules
// them Slurm-style, and every campaign's sweep points fan out across a
// server-wide worker-shard set. The content-addressed point cache is
// shared by all campaigns and written only by them (clients read it
// through /campaign), in-flight computations are deduplicated across
// concurrent clients, and the point cache is the daemon's only
// persistent state: it is flushed as each experiment finishes, so a
// client re-submitting the spec of a killed campaign replays the
// finished experiments byte-identically and executes only the rest.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/runner"
)

// Config sizes one daemon.
type Config struct {
	// CacheDir roots the persistent point cache; "" disables it (points
	// are still deduplicated in memory across concurrent campaigns).
	CacheDir string
	// StateDir is ignored: the daemon keeps no state beside the point
	// cache. A client resubmits a killed campaign's spec instead.
	StateDir string
	// Shards is the size of the server-wide point-execution worker set;
	// <= 0 means runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds how many campaigns may wait for a run slot
	// before submissions are rejected with 503 (Slurm-style admission);
	// <= 0 means 64.
	QueueDepth int
	// MaxInflight bounds how many campaigns execute concurrently;
	// <= 0 means 2. Points of concurrent campaigns share the shard set.
	MaxInflight int
	// MaxRuns bounds the per-configuration repetition count a client
	// may request; <= 0 means 64.
	MaxRuns int
	// Log receives one line per accepted/rejected campaign; nil
	// discards.
	Log io.Writer
	// CampaignTimeout bounds each campaign's execution wall-clock; an
	// expired campaign fails its remaining experiments fast (points
	// already running finish) and is flagged TimedOut in the response.
	// <= 0 disables the deadline.
	CampaignTimeout time.Duration
	// FS is the filesystem for the point cache; nil means the real
	// one. Fault drills pass chaos.Flaky.
	FS chaos.FS
	// Clock paces drain polling; nil means the real clock (tests drive
	// a chaos.FakeClock).
	Clock chaos.Clock
	// BreakerFailLimit / BreakerProbeEvery tune the circuit breaker in
	// front of the point cache (consecutive failures before tripping;
	// half-open probe period in operations); <= 0 means the
	// runner.NewBreaker defaults.
	BreakerFailLimit  int
	BreakerProbeEvery int
	// DegradeAfter is the per-campaign cache-error budget before a
	// campaign degrades to no-cache mode; <= 0 means
	// runner.DefaultDegradeAfter.
	DegradeAfter int
}

// Server is the campaign daemon. Create with New, serve Handler, and
// Close when done.
type Server struct {
	cfg     Config
	clock   chaos.Clock
	pool    *runner.SharedPool
	flight  runner.Flight[bench.PointRecord] // dedups points across campaigns
	cache   *runner.PointCache               // nil when CacheDir == ""
	breaker *runner.Breaker                  // guards cache; nil when cache is nil

	queueSlots chan struct{}
	runSlots   chan struct{}
	queueDepth atomic.Int64
	inflight   atomic.Int64

	accepted  atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64 // queue-full rejections
	badSpecs  atomic.Int64 // 4xx submissions
	dedups    atomic.Int64 // campaigns served by joining an identical in-flight one

	draining           atomic.Bool  // shutdown in progress: admission closed
	drainRejects       atomic.Int64 // submissions refused while draining
	timeouts           atomic.Int64 // campaigns that blew CampaignTimeout
	degradedCampaigns  atomic.Int64 // campaigns that switched to no-cache mode
	durabilityWarnings atomic.Int64 // failed point-cache flushes

	cacheTotals runner.CacheStats
	latency     latencyRecorder
	ov          *overload

	// campaigns dedups identical concurrent submissions.
	campaigns runner.Flight[submitted]

	closed atomic.Bool

	// runFn executes one validated campaign; tests stub it to probe the
	// HTTP layer without simulating anything.
	runFn func(c *campaign) *CampaignResponse
}

// submitted is the outcome of one campaign submission.
type submitted struct {
	resp *CampaignResponse
	err  *submitError
}

// submitError is a client-visible submission failure with its HTTP
// status; retryAfter (seconds, 0 = none) rides along so 503s carry the
// adaptive backoff hint computed from the observed drain rate.
type submitError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *submitError) Error() string { return e.msg }

// New builds a daemon: opens the point cache (whose pack segments are
// all a previous process leaves behind) and starts the worker shards.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	if cfg.FS == nil {
		cfg.FS = chaos.OS()
	}
	if cfg.Clock == nil {
		cfg.Clock = chaos.Real()
	}
	s := &Server{
		cfg:        cfg,
		clock:      cfg.Clock,
		queueSlots: make(chan struct{}, cfg.QueueDepth),
		runSlots:   make(chan struct{}, cfg.MaxInflight),
	}
	s.ov = newOverload(s.clock, cfg.QueueDepth)
	s.runFn = s.runCampaign
	if cfg.CacheDir != "" {
		cache, err := runner.OpenPointCacheFS(cfg.CacheDir, cfg.FS)
		if err != nil {
			return nil, err
		}
		s.cache = cache
		s.breaker = runner.NewBreaker(cache, cfg.BreakerFailLimit, cfg.BreakerProbeEvery)
	}
	s.pool = runner.NewSharedPool(cfg.Shards)
	return s, nil
}

// Shards is the size of the daemon's point-execution worker set.
func (s *Server) Shards() int { return s.cfg.Shards }

// BeginDrain closes admission: new campaign submissions are refused
// with 503 while campaigns already admitted keep running. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether admission is closed.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain blocks until every admitted campaign has finished (the queue
// and run slots are empty) and the point cache is flushed, or ctx
// expires — in which case the unfinished campaigns' clients resubmit,
// replaying the experiments whose points were flushed. Call BeginDrain
// first so the population being waited on cannot grow.
func (s *Server) Drain(ctx context.Context) error {
	for {
		if s.queueDepth.Load() == 0 && s.inflight.Load() == 0 && len(s.queueSlots) == 0 {
			if s.cache != nil {
				if err := s.cache.Flush(); err != nil {
					s.durabilityWarnings.Add(1)
					s.logf("drain: flushing point cache: %v", err)
				}
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server: drain aborted with %d campaigns unfinished: %w",
				s.queueDepth.Load()+s.inflight.Load(), ctx.Err())
		case <-s.clock.After(5 * time.Millisecond):
		}
	}
}

// Close releases the daemon: the shard set and the point cache
// (flushed). Campaigns still executing keep computing on their own
// request goroutines; a client resubmitting one later replays whatever
// points were flushed, exactly as after a killed process.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.pool.Close()
	if s.cache != nil {
		return s.cache.Close()
	}
	return nil
}

// Handler returns the daemon's HTTP API:
//
//	POST /campaign     submit a campaign spec, respond with its results
//	GET  /metrics      queue/cache/latency/robustness counters as JSON
//	GET  /experiments  the experiment registry
//	GET  /healthz      liveness probe (503 once draining)
//	GET  /readyz       readiness probe (503 when draining or the queue is full)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaign", s.handleCampaign)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
}

// handleReadyz reports whether the daemon would accept a submission
// right now: not draining, and the admission queue has room. Load
// balancers steer new campaigns away on 503 while /healthz keeps the
// process alive.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.Draining():
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case len(s.queueSlots) >= cap(s.queueSlots):
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "queue full")
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleCampaign is the submission endpoint. Malformed or out-of-bound
// specs are 400s; a full queue is a 503 with Retry-After; everything
// else executes (or joins an identical in-flight campaign) and returns
// the full result set as JSON.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.drainRejects.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.ov.retryAfterSecs(s.queueDepth.Load())))
		http.Error(w, "interfd: draining; submit to another instance or retry after restart",
			http.StatusServiceUnavailable)
		return
	}
	c, err := parseSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes), s.cfg.MaxRuns)
	if err != nil {
		s.badSpecs.Add(1)
		http.Error(w, "interfd: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.client = clientKey(r)
	resp, serr := s.submit(c)
	if serr != nil {
		if serr.status == http.StatusServiceUnavailable {
			ra := serr.retryAfter
			if ra <= 0 {
				ra = s.ov.retryAfterSecs(s.queueDepth.Load())
			}
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		http.Error(w, "interfd: "+serr.msg, serr.status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		s.logf("encoding response for %s: %v", resp.ID[:12], err)
	}
}

// submit runs one validated campaign through the campaign-level
// singleflight and the admission queue. Concurrent identical specs
// share one execution: followers wait on the leader and receive its
// response (marked Deduped) without consuming queue or run slots. A
// leader that panics releases the spec: its followers fail with the
// same panic and the next submission runs afresh.
func (s *Server) submit(c *campaign) (*CampaignResponse, *submitError) {
	out, joined := s.campaigns.Do(c.id, func() (submitted, bool) {
		resp, err := s.admit(c)
		return submitted{resp, err}, false
	})
	if !joined {
		return out.resp, out.err
	}
	s.dedups.Add(1)
	if out.err != nil {
		return nil, out.err
	}
	shared := *out.resp
	shared.Deduped = true
	return &shared, nil
}

// admit applies the Slurm-style bounded queue plus the adaptive
// overload controller: a client over its fair share is refused before
// consuming a queue slot, and a full queue rejects with a
// drain-rate-derived Retry-After.
func (s *Server) admit(c *campaign) (*CampaignResponse, *submitError) {
	shed := func(counterMsg string) *submitError {
		return &submitError{http.StatusServiceUnavailable, counterMsg,
			s.ov.retryAfterSecs(s.queueDepth.Load())}
	}
	// A full queue outranks fair share: "queue is full" is the truthful
	// rejection whoever submitted, and fair-share shedding should only
	// ever explain a refusal the queue itself would have admitted. Racy
	// reads are fine — the non-blocking slot acquire below is the
	// authoritative check.
	if len(s.queueSlots) >= cap(s.queueSlots) {
		s.rejected.Add(1)
		s.logf("rejected campaign %s: queue full (%d waiting)", c.id[:12], s.queueDepth.Load())
		return nil, shed(fmt.Sprintf("admission queue is full (%d campaigns waiting); retry later", s.queueDepth.Load()))
	}
	if !s.ov.reserve(c.client) {
		s.logf("shed campaign %s: client %s over its fair share", c.id[:12], c.client)
		return nil, shed("client is over its fair share of the admission queue; retry later")
	}
	defer s.ov.release(c.client)
	select {
	case s.queueSlots <- struct{}{}:
	default:
		s.rejected.Add(1)
		s.logf("rejected campaign %s: queue full (%d waiting)", c.id[:12], s.queueDepth.Load())
		return nil, shed(fmt.Sprintf("admission queue is full (%d campaigns waiting); retry later", s.queueDepth.Load()))
	}
	defer func() { <-s.queueSlots }()

	s.queueDepth.Add(1)
	s.runSlots <- struct{}{}
	s.queueDepth.Add(-1)
	defer func() { <-s.runSlots }()

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	s.accepted.Add(1)
	start := time.Now()
	resp := s.runFn(c)
	resp.WallMs = float64(time.Since(start).Microseconds()) / 1e3
	s.latency.add(resp.WallMs)
	s.ov.observe()
	s.completed.Add(1)
	s.logf("campaign %s: %d experiments on %s in %.0fms (%d/%d points served without executing, %d errors)",
		c.id[:12], len(c.exps), c.cluster, resp.WallMs,
		resp.Cache.Hits+resp.Cache.MemoHits+resp.Cache.FlightHits, resp.Cache.Points, resp.Errors)
	return resp, nil
}

// clientKey identifies the submitting client for fair queueing: the
// X-API-Key header when present, otherwise the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		host = r.RemoteAddr
	}
	return "addr:" + host
}

// runCampaign executes a campaign on the shared shard set; points the
// point cache holds are replayed instead of executed.
func (s *Server) runCampaign(c *campaign) *CampaignResponse {
	stats := &runner.CacheStats{}
	opts := runner.Options{
		Workers:      s.cfg.Shards,
		Format:       c.spec.Format,
		CacheStats:   stats,
		Flight:       &s.flight,
		SharedPool:   s.pool,
		DegradeAfter: s.cfg.DegradeAfter,
	}
	if s.breaker != nil {
		opts.Cache = s.breaker
	}
	ctx := context.Background()
	if s.cfg.CampaignTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.CampaignTimeout)
		defer cancel()
	}
	opts.Ctx = ctx
	resp := &CampaignResponse{ID: c.id, Cluster: c.cluster}
	for res := range runner.Run(c.env, c.exps, opts) {
		er := ExperimentResult{
			ID:       res.Exp.ID,
			Rendered: res.Rendered,
			Cached:   res.Cached,
		}
		m := res.Metrics
		er.SimSeconds, er.Worlds, er.Tables, er.Rows = m.SimSeconds, m.Worlds, m.Tables, m.Rows
		er.WallMs, er.Faults = float64(m.Wall.Milliseconds()), m.Faults
		if res.Err != nil {
			er.Error = res.Err.Error()
			er.Rendered = ""
			resp.Errors++
		}
		resp.Results = append(resp.Results, er)
		if s.cache != nil {
			// One pack flush per finished experiment: a daemon killed
			// mid-campaign keeps every completed experiment's points
			// without paying per-point file I/O. A failed flush keeps
			// them pending (still served, retried at the next flush): it
			// costs durability, not correctness.
			if err := s.cache.Flush(); err != nil {
				s.durabilityWarnings.Add(1)
				s.logf("campaign %s: flushing point cache: %v", c.id[:12], err)
			}
		}
	}
	resp.Cache = summarize(stats)
	s.cacheTotals.Add(stats)
	if atomic.LoadInt64(&stats.Degraded) != 0 {
		resp.Degraded = true
		s.degradedCampaigns.Add(1)
		s.logf("campaign %s: cache degraded to no-cache mode after %d errors",
			c.id[:12], atomic.LoadInt64(&stats.Errors))
	}
	if ctx.Err() != nil {
		resp.TimedOut = true
		s.timeouts.Add(1)
		s.logf("campaign %s: exceeded the %v campaign timeout", c.id[:12], s.cfg.CampaignTimeout)
	}
	return resp
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "interfd: "+format+"\n", args...)
}
