package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
)

func TestParseRetryAfter(t *testing.T) {
	cap := 5 * time.Second
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},    // absent: caller backs off on its own
		{"abc", 0, false}, // non-numeric
		{"Fri, 07 Aug 2026 00:00:00 GMT", 0, false}, // HTTP-date form: not produced by interfd
		{"-3", 0, false},                       // negative
		{"2", 2 * time.Second, true},           //
		{"0", 0, true},                         // explicit zero is honored as "now"
		{"0.25", 250 * time.Millisecond, true}, // fractional seconds
		{"86400", cap, true},                   // huge: capped
		{"1e300", cap, true},                   // absurd: float overflow must still cap
		{"9223372036854775807", cap, true},     // int64-overflow territory
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in, cap)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestRemoteCacheRequestTimeout: a daemon that accepts the connection
// and then hangs must not stall a worker shard — the per-request
// timeout turns the hang into an ordinary transient I/O error.
func TestRemoteCacheRequestTimeout(t *testing.T) {
	unblock := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hang until the client gives up and the test tears down
		case <-unblock:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	defer close(unblock)
	rc := NewRemoteCache(ts.URL)
	rc.SetRetries(0, time.Millisecond, time.Millisecond)
	rc.SetRequestTimeout(50 * time.Millisecond)
	start := time.Now()
	_, ok, _, ioErr := rc.Load("some/key")
	if ok || !ioErr {
		t.Fatalf("hung Load = ok=%v ioErr=%v, want a clean I/O error", ok, ioErr)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Load took %v; the request timeout did not fire", el)
	}
	if err := rc.Store("some/key", bench.PointRecord{Schema: bench.PointSchema, Key: "some/key"}); err == nil {
		t.Fatal("hung Store reported success")
	}
}

type denyBudget struct{}

func (denyBudget) Allow() bool { return false }

// TestRemoteCacheBudgetGatesRetries: with an exhausted shared budget
// the per-operation retry count is irrelevant — one attempt, no storm.
func TestRemoteCacheBudgetGatesRetries(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rc := NewRemoteCache(ts.URL)
	rc.SetRetries(3, time.Millisecond, time.Millisecond)
	rc.SetBudget(denyBudget{})
	if _, _, _, ioErr := rc.Load("k"); !ioErr {
		t.Fatal("failing Load did not report ioErr")
	}
	if hits != 1 {
		t.Fatalf("server saw %d attempts, want 1 (budget must gate retries)", hits)
	}
}

func TestOverloadFairShare(t *testing.T) {
	o := newOverload(chaos.NewFakeClock(), 4, 0, 0, 0)
	for i := 0; i < 4; i++ {
		if !o.reserve("key:a") {
			t.Fatalf("lone client refused at %d of 4", i)
		}
	}
	if o.reserve("key:a") {
		t.Fatal("client admitted past the whole queue")
	}
	if o.shedFair.Load() != 1 {
		t.Fatalf("shedFair = %d", o.shedFair.Load())
	}
	// A second client halves the share — but it holds none of it yet, so
	// it is admitted while the hog is refused.
	if !o.reserve("key:b") {
		t.Fatal("second client refused while the first hogs the queue")
	}
	if o.reserve("key:a") {
		t.Fatal("hog admitted over its share")
	}
	for i := 0; i < 4; i++ {
		o.release("key:a")
	}
	// With the hog gone, b's dynamic share covers the queue again.
	for i := 0; i < 3; i++ {
		if !o.reserve("key:b") {
			t.Fatalf("b refused at outstanding=%d after the hog left", i+1)
		}
	}
	if !o.reserve("") {
		t.Fatal("anonymous client must never be fair-share gated")
	}
}

func TestOverloadDeadlineEstimate(t *testing.T) {
	clk := chaos.NewFakeClock()
	o := newOverload(clk, 64, 0, 0, 0)
	if o.overDeadline(4, 100, time.Second) {
		t.Fatal("refused with no cost history")
	}
	o.observe(100, 2, 1000) // 50 points/exp, 10ms/point
	clk.Advance(time.Second)
	o.observe(100, 2, 1000) // drain: 1 campaign/s
	if est := o.estimateMs(2); est != 1000 {
		t.Fatalf("estimateMs(2) = %v, want 1000", est)
	}
	if w := o.waitMs(3); w != 3000 {
		t.Fatalf("waitMs(3) = %v, want 3000", w)
	}
	if !o.overDeadline(2, 3, 2*time.Second) { // 1000 + 3000 > 2000
		t.Fatal("hopeless deadline admitted")
	}
	if o.overDeadline(2, 0, 2*time.Second) { // 1000 < 2000
		t.Fatal("feasible deadline refused")
	}
	if o.overDeadline(2, 3, 0) {
		t.Fatal("no deadline must mean no deadline gate")
	}
	if o.shedDeadline.Load() != 1 {
		t.Fatalf("shedDeadline = %d", o.shedDeadline.Load())
	}
}

func TestOverloadCoDelLaw(t *testing.T) {
	clk := chaos.NewFakeClock()
	o := newOverload(clk, 64, 2*time.Second, 4*time.Second, 0)
	if o.dequeue(time.Second) {
		t.Fatal("under-target sojourn dropped")
	}
	if o.dequeue(3 * time.Second) {
		t.Fatal("first above-target sojourn must only arm the interval")
	}
	clk.Advance(5 * time.Second)
	if !o.dequeue(3 * time.Second) {
		t.Fatal("sojourn above target for a full interval not dropped")
	}
	// Control law: the next drop threshold is interval/sqrt(1) = 4s out.
	clk.Advance(3 * time.Second)
	if o.dequeue(3 * time.Second) {
		t.Fatal("dropped before the accelerated interval elapsed")
	}
	clk.Advance(2 * time.Second)
	if !o.dequeue(3 * time.Second) {
		t.Fatal("second drop of the episode missing")
	}
	// Recovery: one under-target sojourn ends the episode.
	if o.dequeue(time.Second) {
		t.Fatal("recovered sojourn dropped")
	}
	clk.Advance(10 * time.Second)
	if o.dequeue(3 * time.Second) {
		t.Fatal("post-recovery above-target sojourn must re-arm, not drop")
	}
	if o.shedCodel.Load() != 2 {
		t.Fatalf("shedCodel = %d, want 2", o.shedCodel.Load())
	}
}

func TestOverloadRetryAfterTracksDrain(t *testing.T) {
	clk := chaos.NewFakeClock()
	o := newOverload(clk, 64, 0, 0, 0)
	if got := o.retryAfterSecs(10); got != 1 {
		t.Fatalf("no-history Retry-After = %d, want 1", got)
	}
	o.observe(10, 1, 100)
	clk.Advance(time.Second)
	o.observe(10, 1, 100) // 1 campaign/s drain
	if got := o.retryAfterSecs(5); got != 6 {
		t.Fatalf("Retry-After = %d, want 6 (queue of 5 at 1/s)", got)
	}
	if got := o.retryAfterSecs(100000); got != 60 {
		t.Fatalf("Retry-After = %d, want the 60s clamp", got)
	}
}

// TestOverloadLearnsFromExecutedPointsOnly: the cost estimator is fed
// the points a campaign executed, not the points it requested, so
// repeats served entirely from the point cache leave the per-point cost
// where the cold campaign put it instead of dragging it toward zero.
func TestOverloadLearnsFromExecutedPointsOnly(t *testing.T) {
	s, _ := newTestServer(t, Config{Clock: chaos.NewFakeClock()})
	cold := true
	s.runFn = func(c *campaign) *CampaignResponse {
		resp := &CampaignResponse{ID: c.id, Cluster: c.cluster, Cache: CacheSummary{Points: 10, Hits: 10}}
		if cold {
			time.Sleep(5 * time.Millisecond) // a cold campaign costs real time
			resp.Cache = CacheSummary{Points: 10, Misses: 10}
		}
		return resp
	}
	c, err := compile(CampaignSpec{Experiments: []string{"fig3"}, Seed: 1, Runs: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := s.submit(c); serr != nil {
		t.Fatal(serr)
	}
	want := s.Metrics().Overload
	if want.EstPointMs <= 0 {
		t.Fatalf("cold campaign taught no per-point cost: %+v", want)
	}
	cold = false
	for i := 0; i < 5; i++ {
		if _, serr := s.submit(c); serr != nil {
			t.Fatal(serr)
		}
	}
	if got := s.Metrics().Overload; got.EstPointMs != want.EstPointMs || got.EstPointsPerExp != want.EstPointsPerExp {
		t.Fatalf("cached repeats moved the estimator: %+v, want %+v", got, want)
	}
}

// postSpecAs submits a campaign under a client identity and deadline.
func postSpecAs(t *testing.T, url string, spec CampaignSpec, apiKey, deadline string) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/campaign", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	if deadline != "" {
		req.Header.Set("X-Deadline", deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	return resp, payload
}

// TestServerFairShareShedding: a client saturating its per-client cap
// gets 503s while a second client's submission is still admitted.
func TestServerFairShareShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 6, MaxInflight: 1, FairShare: 3})
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	s.runFn = func(c *campaign) *CampaignResponse {
		entered <- struct{}{}
		<-release
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}
	defer close(release)

	spec := func(seed int64) CampaignSpec {
		return CampaignSpec{Experiments: []string{"fig3"}, Seed: seed, Runs: 1}
	}
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	// The hog: one running + two queued = its whole share of 3.
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postSpecAs(t, ts.URL, spec(1), "hog", "")
		codes <- resp.StatusCode
	}()
	<-entered
	for i := int64(2); i <= 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postSpecAs(t, ts.URL, spec(i), "hog", "")
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, func() bool { return s.queueDepth.Load() == 2 })

	// The hog's fourth campaign is refused — fair share, with an
	// adaptive Retry-After — while a newcomer is admitted: the queue
	// still has room, only the hog's share is spent.
	resp, payload := postSpecAs(t, ts.URL, spec(4), "hog", "")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(payload), "fair share") {
		t.Fatalf("hog's 4th campaign: %d %q", resp.StatusCode, payload)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("fair-share 503 Retry-After = %q", resp.Header.Get("Retry-After"))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postSpecAs(t, ts.URL, spec(5), "newcomer", "")
		codes <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.queueDepth.Load() == 3 })

	for i := 0; i < 4; i++ { // one release per admitted campaign
		release <- struct{}{}
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted campaign answered %d", code)
		}
	}
	if got := s.Metrics().Overload.ShedFairShare; got != 1 {
		t.Fatalf("shed_fair_share = %d, want 1", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never held")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestServerDeadlineShedding: a deadline the cost model says cannot be
// met is refused up front; a feasible one is served; a malformed one is
// a 400.
func TestServerDeadlineShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 4, MaxInflight: 1})
	s.runFn = func(c *campaign) *CampaignResponse {
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}
	// Teach the cost model: 1000 points/exp at 10ms each = 10s per
	// single-experiment campaign.
	s.ov.observe(1000, 1, 10000)

	spec := CampaignSpec{Experiments: []string{"fig3"}, Seed: 1, Runs: 1}
	resp, payload := postSpecAs(t, ts.URL, spec, "", "1s")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(payload), "deadline") {
		t.Fatalf("hopeless deadline: %d %q", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline 503 has no Retry-After")
	}
	spec.Seed = 2
	if resp, payload := postSpecAs(t, ts.URL, spec, "", "5m"); resp.StatusCode != http.StatusOK {
		t.Fatalf("feasible deadline: %d %q", resp.StatusCode, payload)
	}
	spec.Seed = 3
	if resp, _ := postSpecAs(t, ts.URL, spec, "", "soon"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: %d", resp.StatusCode)
	}
	if resp, _ := postSpecAs(t, ts.URL, spec, "", "-3s"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadline: %d", resp.StatusCode)
	}
	if got := s.Metrics().Overload.ShedDeadline; got != 1 {
		t.Fatalf("shed_deadline = %d, want 1", got)
	}
}

// TestServerOverloadStorm drives the daemon at ~2x its service capacity
// from four rival clients and asserts the overload controller's
// contract: every refusal is a 503 with an adaptive Retry-After, some
// work still completes for every client, and the latency of what IS
// served stays bounded instead of growing with the backlog.
func TestServerOverloadStorm(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 8, MaxInflight: 2})
	s.runFn = func(c *campaign) *CampaignResponse {
		time.Sleep(5 * time.Millisecond)
		return &CampaignResponse{ID: c.id, Cluster: c.cluster,
			Cache: CacheSummary{Points: 10, Misses: 10}}
	}

	const clients = 4
	const perClient = 12
	type sample struct {
		code int
		ms   float64
	}
	results := make(chan sample, clients*perClient)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl := cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := CampaignSpec{Experiments: []string{"fig3"},
					Seed: int64(cl*1000 + i + 1), Runs: 1}
				start := time.Now()
				resp, _ := postSpecAs(t, ts.URL, spec, fmt.Sprintf("client-%d", cl), "")
				el := float64(time.Since(start).Microseconds()) / 1e3
				if resp.StatusCode == http.StatusServiceUnavailable {
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
						t.Errorf("503 Retry-After = %q, want an integer in [1,60]",
							resp.Header.Get("Retry-After"))
					}
				}
				results <- sample{resp.StatusCode, el}
			}
		}()
	}
	wg.Wait()
	close(results)

	var served, shed int
	var latencies []float64
	for r := range results {
		switch r.code {
		case http.StatusOK:
			served++
			latencies = append(latencies, r.ms)
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("storm answer %d, want 200 or 503", r.code)
		}
	}
	if served == 0 {
		t.Fatal("overload shed everything; admission collapsed")
	}
	if served+shed != clients*perClient {
		t.Fatalf("served %d + shed %d != %d", served, shed, clients*perClient)
	}
	sort.Float64s(latencies)
	p99 := latencies[int(0.99*float64(len(latencies)-1))]
	if p99 > 5000 {
		t.Fatalf("p99 of served campaigns = %.0fms; overload control failed to bound latency", p99)
	}
	m := s.Metrics()
	if m.Overload.EstPointMs <= 0 || m.Overload.DrainPerSec <= 0 {
		t.Fatalf("estimators did not learn: %+v", m.Overload)
	}
	t.Logf("storm: served=%d shed=%d p99=%.1fms shed_fair=%d rejected=%d",
		served, shed, p99, m.Overload.ShedFairShare, m.Campaigns.Rejected)
}
