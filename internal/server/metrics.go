package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/runner"
)

// CampaignResponse is the wire format of one served campaign: the
// results in submission order plus the campaign's cache accounting.
type CampaignResponse struct {
	// ID is the content-addressed campaign identity (identical
	// normalized specs share it).
	ID      string `json:"id"`
	Cluster string `json:"cluster"`
	// Deduped marks a response served by joining an identical in-flight
	// campaign instead of executing.
	Deduped bool               `json:"deduped,omitempty"`
	Results []ExperimentResult `json:"results"`
	Errors  int                `json:"errors,omitempty"`
	// Degraded marks a campaign that switched to no-cache mode after
	// repeated cache failures (results are still correct, just
	// recomputed); TimedOut one that blew the server's campaign
	// deadline (its remaining experiments report errors).
	Degraded bool         `json:"degraded,omitempty"`
	TimedOut bool         `json:"timed_out,omitempty"`
	Cache    CacheSummary `json:"cache"`
	// WallMs is the campaign's server-side latency, queue wait included.
	WallMs float64 `json:"wall_ms"`
}

// ExperimentResult mirrors runner.Result across the wire.
type ExperimentResult struct {
	ID       string `json:"id"`
	Rendered string `json:"rendered,omitempty"`
	Error    string `json:"error,omitempty"`
	// Cached marks a result replayed from the point cache (see
	// runner.Result.Cached).
	Cached     bool            `json:"cached,omitempty"`
	SimSeconds float64         `json:"sim_seconds"`
	Worlds     int             `json:"worlds"`
	Tables     int             `json:"tables"`
	Rows       int             `json:"rows"`
	WallMs     float64         `json:"wall_ms"`
	Faults     counters.Faults `json:"faults"`
}

// CacheSummary is a CacheStats snapshot in wire form.
type CacheSummary struct {
	Points     int64   `json:"points"`
	Hits       int64   `json:"hits"`
	Misses     int64   `json:"misses"`
	MemoHits   int64   `json:"memo_hits"`
	FlightHits int64   `json:"flight_hits"`
	Mismatches int64   `json:"mismatches"`
	Errors     int64   `json:"errors"`
	Skipped    int64   `json:"skipped,omitempty"`
	HitRate    float64 `json:"hit_rate"`
}

func summarize(s *runner.CacheStats) CacheSummary {
	return CacheSummary{
		Points:     s.Points(),
		Hits:       atomic.LoadInt64(&s.Hits),
		Misses:     atomic.LoadInt64(&s.Misses),
		MemoHits:   atomic.LoadInt64(&s.MemoHits),
		FlightHits: atomic.LoadInt64(&s.FlightHits),
		Mismatches: atomic.LoadInt64(&s.Mismatches),
		Errors:     atomic.LoadInt64(&s.Errors),
		Skipped:    atomic.LoadInt64(&s.Skipped),
		HitRate:    s.HitRate(),
	}
}

// latencyRecorder keeps a bounded reservoir of campaign latencies for
// the percentile metrics (the most recent window; a daemon serving
// millions of campaigns must not hoard every sample).
type latencyRecorder struct {
	mu      sync.Mutex
	samples []float64 // ms, ring
	next    int
	count   int64
}

const latencyWindow = 4096

func (l *latencyRecorder) add(ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) < latencyWindow {
		l.samples = append(l.samples, ms)
	} else {
		l.samples[l.next] = ms
		l.next = (l.next + 1) % latencyWindow
	}
	l.count++
}

// percentiles returns the p50/p99 of the recorded window (nearest-rank)
// and the lifetime sample count.
func (l *latencyRecorder) percentiles() (p50, p99 float64, count int64) {
	l.mu.Lock()
	sorted := append([]float64(nil), l.samples...)
	count = l.count
	l.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, count
	}
	sort.Float64s(sorted)
	rank := func(p float64) float64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return rank(0.50), rank(0.99), count
}

// Metrics is the /metrics document.
type Metrics struct {
	Campaigns struct {
		Accepted   int64 `json:"accepted"`
		Completed  int64 `json:"completed"`
		Rejected   int64 `json:"rejected"`
		BadSpecs   int64 `json:"bad_specs"`
		Deduped    int64 `json:"deduped"`
		QueueDepth int64 `json:"queue_depth"`
		Inflight   int64 `json:"inflight"`
	} `json:"campaigns"`
	Cache   CacheSummary `json:"cache"`
	Latency struct {
		Count int64   `json:"count"`
		P50Ms float64 `json:"p50_ms"`
		P99Ms float64 `json:"p99_ms"`
	} `json:"latency"`
	// Overload reports the adaptive admission controller: the drain
	// rate behind Retry-After, the Retry-After a rejection would carry
	// now, and the fair-share refusals (queue-full rejections stay under
	// Campaigns.Rejected).
	Overload struct {
		DrainPerSec   float64 `json:"drain_per_sec"`
		RetryAfterS   int     `json:"retry_after_s"`
		ShedFairShare int64   `json:"shed_fair_share"`
	} `json:"overload"`
	// Robustness reports the daemon's degradation machinery: drain
	// state, the cache circuit breaker, campaigns running without a
	// cache or deadline-expired, failed point-cache flushes, and worker
	// shards restarted after panics.
	Robustness struct {
		Draining           bool                `json:"draining"`
		Breaker            runner.BreakerStats `json:"breaker"`
		DegradedCampaigns  int64               `json:"degraded_campaigns"`
		TimedOutCampaigns  int64               `json:"timed_out_campaigns"`
		DurabilityWarnings int64               `json:"durability_warnings"`
		DrainRejected      int64               `json:"drain_rejected"`
		ShardRestarts      int64               `json:"shard_restarts"`
	} `json:"robustness"`
	Shards int `json:"shards"`
}

// Metrics snapshots the daemon's counters.
func (s *Server) Metrics() Metrics {
	var m Metrics
	m.Campaigns.Accepted = s.accepted.Load()
	m.Campaigns.Completed = s.completed.Load()
	m.Campaigns.Rejected = s.rejected.Load()
	m.Campaigns.BadSpecs = s.badSpecs.Load()
	m.Campaigns.Deduped = s.dedups.Load()
	m.Campaigns.QueueDepth = s.queueDepth.Load()
	m.Campaigns.Inflight = s.inflight.Load()
	m.Cache = summarize(&s.cacheTotals)
	m.Latency.P50Ms, m.Latency.P99Ms, m.Latency.Count = s.latency.percentiles()
	m.Overload.DrainPerSec = s.ov.snapshot()
	m.Overload.RetryAfterS = s.ov.retryAfterSecs(s.queueDepth.Load())
	m.Overload.ShedFairShare = s.ov.shedFair.Load()
	m.Robustness.Draining = s.Draining()
	if s.breaker != nil {
		m.Robustness.Breaker = s.breaker.Stats()
	} else {
		m.Robustness.Breaker.StateName = "closed"
	}
	m.Robustness.DegradedCampaigns = s.degradedCampaigns.Load()
	m.Robustness.TimedOutCampaigns = s.timeouts.Load()
	m.Robustness.DurabilityWarnings = s.durabilityWarnings.Load()
	m.Robustness.DrainRejected = s.drainRejects.Load()
	m.Robustness.ShardRestarts = s.pool.Restarts()
	m.Shards = s.cfg.Shards
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Metrics()); err != nil {
		s.logf("encoding metrics: %v", err)
	}
}

// handleExperiments serves the registry so remote clients can discover
// what this daemon can run.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expInfo struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Sweep string `json:"sweep,omitempty"`
	}
	var out []expInfo
	for _, e := range core.Experiments() {
		out = append(out, expInfo{ID: e.ID, Title: e.Title, Sweep: e.Sweep})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		s.logf("encoding experiments: %v", err)
	}
}
