package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestOverloadFairShare(t *testing.T) {
	o := newOverload(chaos.NewFakeClock(), 4)
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

func TestOverloadRetryAfterTracksDrain(t *testing.T) {
	clk := chaos.NewFakeClock()
	o := newOverload(clk, 64)
	if got := o.retryAfterSecs(10); got != 1 {
		t.Fatalf("no-history Retry-After = %d, want 1", got)
	}
	o.observe()
	clk.Advance(time.Second)
	o.observe() // 1 campaign/s drain
	if got := o.retryAfterSecs(5); got != 6 {
		t.Fatalf("Retry-After = %d, want 6 (queue of 5 at 1/s)", got)
	}
	if got := o.retryAfterSecs(100000); got != 60 {
		t.Fatalf("Retry-After = %d, want the 60s clamp", got)
	}
}

// postSpecAs submits a campaign under a client identity.
func postSpecAs(t *testing.T, url string, spec CampaignSpec, apiKey string) (*http.Response, []byte) {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	return resp, payload
}

// TestServerFairShareShedding: a client saturating its dynamic share of
// the queue gets 503s while the queue still has room. Two active keys
// against QueueDepth 6 give each a share of 3.
func TestServerFairShareShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 6, MaxInflight: 1})
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
	submit := func(seed int64, key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postSpecAs(t, ts.URL, spec(seed), key)
			codes <- resp.StatusCode
		}()
	}
	// The hog runs one campaign; a newcomer queues one, so two keys are
	// active; the hog queues two more: one running + two queued is its
	// whole share of 6/2 = 3.
	submit(1, "hog")
	<-entered
	submit(5, "newcomer")
	waitFor(t, func() bool { return s.queueDepth.Load() == 1 })
	submit(2, "hog")
	submit(3, "hog")
	waitFor(t, func() bool { return s.queueDepth.Load() == 3 })

	// The hog's fourth campaign is refused — fair share, with an
	// adaptive Retry-After — although the queue still has room: only
	// the hog's share is spent.
	resp, payload := postSpecAs(t, ts.URL, spec(4), "hog")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(payload), "fair share") {
		t.Fatalf("hog's 4th campaign: %d %q", resp.StatusCode, payload)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("fair-share 503 Retry-After = %q", resp.Header.Get("Retry-After"))
	}

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

// TestServerOverloadStorm drives the daemon at twice its capacity:
// more concurrent clients than QueueDepth + MaxInflight, spread over a
// few API keys, each submitting back to back. It asserts the overload
// controller's contract: both remaining gates fire (queue-full
// rejections and fair-share sheds), every refusal is a 503 with an
// adaptive Retry-After in [1,60], every key still gets work served,
// and the latency of what IS served stays bounded instead of growing
// with the backlog.
//
// The storm opens with a script, so that both gates fire whatever the
// timing: campaigns hold their slots until the script ends, one key
// exceeds its share while the queue has room, the other keys fill the
// queue, and a last client finds it full. Then the storm runs free.
func TestServerOverloadStorm(t *testing.T) {
	const queueDepth, maxInflight = 8, 2
	s, ts := newTestServer(t, Config{QueueDepth: queueDepth, MaxInflight: maxInflight})
	gate := make(chan struct{})
	s.runFn = func(c *campaign) *CampaignResponse {
		<-gate
		time.Sleep(10 * time.Millisecond)
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}

	// Four keys divide the queue into shares of 2, so a full queue and an
	// over-share key both occur while the storm lasts.
	const clients = 2 * (queueDepth + maxInflight)
	const keys = 4
	const perClient = 8
	type sample struct {
		code int
		ms   float64
	}
	// A client submits its first campaign on its turn in the script,
	// the rest once the gate is open.
	turns := make([]chan struct{}, clients)
	for cl := range turns {
		turns[cl] = make(chan struct{})
	}
	turn := func(cl int) {
		close(turns[cl])
		turns[cl] = nil
	}
	var openOnce sync.Once
	open := func() {
		openOnce.Do(func() {
			close(gate)
			for cl, ch := range turns {
				if ch != nil {
					turn(cl)
				}
			}
		})
	}
	defer open() // a failed script must not leave handlers blocked
	results := make(chan sample, clients*perClient)
	servedBy := make([]int64, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		cl, first := cl, turns[cl]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if i == 0 {
					<-first
				} else {
					<-gate
				}
				spec := CampaignSpec{Experiments: []string{"fig3"},
					Seed: int64(cl*1000 + i + 1), Runs: 1}
				start := time.Now()
				resp, _ := postSpecAs(t, ts.URL, spec, fmt.Sprintf("key-%d", cl%keys))
				el := float64(time.Since(start).Microseconds()) / 1e3
				switch resp.StatusCode {
				case http.StatusOK:
					servedBy[cl]++
				case http.StatusServiceUnavailable:
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 || ra > 60 {
						t.Errorf("503 Retry-After = %q, want an integer in [1,60]",
							resp.Header.Get("Retry-After"))
					}
					// A short pause keeps the storm going for several
					// service times instead of spinning through it.
					time.Sleep(5 * time.Millisecond)
				}
				results <- sample{resp.StatusCode, el}
			}
		}()
	}

	// Client cl submits under key cl%keys. One campaign per key makes
	// four keys active, so each key's share is 2; key-0 takes its second.
	admitted := func(cl int) {
		turn(cl)
		waitFor(t, func() bool { return len(s.queueSlots) == cl+1 })
	}
	for cl := 0; cl <= keys; cl++ {
		admitted(cl)
	}
	turn(2 * keys) // key-0's third: over its share, with 3 queue slots free
	waitFor(t, func() bool { return s.ov.shedFair.Load() == 1 })
	for cl := keys + 1; cl < 2*keys; cl++ {
		admitted(cl) // keys 1-3 take their second: the queue is full
	}
	turn(3 * keys)
	waitFor(t, func() bool { return s.rejected.Load() == 1 })
	open()
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
	if served+shed != clients*perClient {
		t.Fatalf("served %d + shed %d != %d", served, shed, clients*perClient)
	}
	perKey := make([]int64, keys)
	for cl, n := range servedBy {
		perKey[cl%keys] += n
	}
	for k, n := range perKey {
		if n == 0 {
			t.Fatalf("key-%d got nothing served; fair share failed", k)
		}
	}
	m := s.Metrics()
	if m.Campaigns.Rejected == 0 || m.Overload.ShedFairShare == 0 {
		t.Fatalf("storm did not exercise both gates: queue-full %d, fair share %d",
			m.Campaigns.Rejected, m.Overload.ShedFairShare)
	}
	if got := m.Campaigns.Rejected + m.Overload.ShedFairShare; got != int64(shed) {
		t.Fatalf("shed counters sum to %d, clients saw %d 503s", got, shed)
	}
	sort.Float64s(latencies)
	p99 := latencies[int(0.99*float64(len(latencies)-1))]
	if p99 > 2000 {
		t.Fatalf("p99 of served campaigns = %.0fms; overload control failed to bound latency", p99)
	}
	if m.Overload.DrainPerSec <= 0 {
		t.Fatalf("drain estimator did not learn: %+v", m.Overload)
	}
	t.Logf("storm: served=%d shed=%d p99=%.1fms shed_fair=%d rejected=%d",
		served, shed, p99, m.Overload.ShedFairShare, m.Campaigns.Rejected)
}
