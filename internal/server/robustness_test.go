package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestServerDrainLifecycle: BeginDrain closes admission (503 on
// /campaign, /healthz and /readyz report draining) while the in-flight
// campaign finishes; Drain — polled on the chaos clock — returns once
// the queue is empty, and the drain rejections are counted.
func TestServerDrainLifecycle(t *testing.T) {
	clock := chaos.NewFakeClock()
	s, ts := newTestServer(t, Config{Clock: clock})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runFn = func(c *campaign) *CampaignResponse {
		close(entered)
		<-release
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}

	first := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(CampaignSpec{Experiments: []string{"fig3"}, Runs: 1})
		resp, err := http.Post(ts.URL+"/campaign", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-entered

	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	s.BeginDrain()
	if code, body := getStatus(t, ts.URL+"/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz while draining: %d %q", code, body)
	}
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("readyz while draining: %d %q", code, body)
	}

	// New submissions are refused without touching the queue.
	body, _ := json.Marshal(CampaignSpec{Experiments: []string{"ext-sched"}, Runs: 1})
	resp, err := http.Post(ts.URL+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(payload), "draining") {
		t.Fatalf("submission while draining: %d %q", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain rejection has no Retry-After")
	}

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	// Drain is polling on the fake clock; it cannot finish while the
	// campaign is parked.
	for clock.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain finished with a campaign in flight: %v", err)
	default:
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight campaign during drain: %d", code)
	}
	deadline := time.After(5 * time.Second)
	for {
		clock.Advance(5 * time.Millisecond)
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			m := s.Metrics()
			if !m.Robustness.Draining || m.Robustness.DrainRejected != 1 {
				t.Fatalf("robustness metrics after drain: %+v", m.Robustness)
			}
			return
		case <-deadline:
			t.Fatal("drain never completed after the campaign finished")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestServerDrainTimeout: a drain that times out reports the
// unfinished campaign; after the operator kills the daemon, the next
// daemon on the same cache serves the client's resubmission.
func TestServerDrainTimeout(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: filepath.Join(dir, "cache"), Shards: 2}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	a.runFn = func(c *campaign) *CampaignResponse {
		close(entered)
		<-release
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}
	spec := CampaignSpec{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1}
	c, err := compile(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	go a.submit(c)
	<-entered

	a.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); err == nil || !strings.Contains(err.Error(), "unfinished") {
		t.Fatalf("drain with a stuck campaign: %v, want an unfinished-campaigns error", err)
	}
	// The operator gives up and kills the process mid-campaign.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)

	b, ts := newTestServer(t, cfg)
	code, body, cr := postSpec(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("resubmission after an aborted drain: %d: %s", code, body)
	}
	if want := localRendered(t, "henri", 1, 1, "ext-sched"); cr.Errors != 0 || cr.Results[0].Rendered != want[0] {
		t.Fatalf("resubmission after an aborted drain differs from a clean local run: %s", body)
	}
	if m := b.Metrics(); m.Campaigns.Completed != 1 {
		t.Fatalf("resubmitted campaign did not complete: %+v", m.Campaigns)
	}
}

// TestServerCampaignTimeout: a campaign that exceeds the server's
// deadline fails its remaining experiments fast, is flagged TimedOut,
// and ticks the timeout counter — the daemon moves on to other work.
func TestServerCampaignTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{CampaignTimeout: time.Nanosecond})
	code, _, cr := postSpec(t, ts.URL, CampaignSpec{Experiments: []string{"fig3"}, Runs: 1})
	if code != http.StatusOK {
		t.Fatalf("timed-out campaign status %d, want 200 with per-experiment errors", code)
	}
	if !cr.TimedOut {
		t.Fatal("response not flagged TimedOut")
	}
	if cr.Errors == 0 {
		t.Fatal("expired deadline produced no experiment errors")
	}
	for _, er := range cr.Results {
		if er.Error != "" && !strings.Contains(er.Error, "cancelled") {
			t.Fatalf("experiment error %q does not mention cancellation", er.Error)
		}
	}
	if m := s.Metrics(); m.Robustness.TimedOutCampaigns != 1 {
		t.Fatalf("timed_out_campaigns = %d, want 1", m.Robustness.TimedOutCampaigns)
	}
}

// TestServerReadyzQueueFull: /readyz steers load away when the
// admission queue is saturated, while /healthz stays green.
func TestServerReadyzQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1, MaxInflight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	s.runFn = func(c *campaign) *CampaignResponse {
		close(entered)
		<-release
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz idle: %d %q", code, body)
	}
	go func() {
		body, _ := json.Marshal(CampaignSpec{Experiments: []string{"fig3"}, Runs: 1})
		resp, err := http.Post(ts.URL+"/campaign", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-entered
	if code, body := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "queue full") {
		t.Fatalf("readyz with a full queue: %d %q", code, body)
	}
	if code, _ := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz with a full queue: %d", code)
	}
}

// TestServerPackWriteFailureDegradesGracefully: when every point-cache
// pack write fails (dead disk under the cache dir), campaigns still
// serve correct results — each failed flush counted as a durability
// warning — instead of failing, and a repeat is still served from the
// records the failed flushes kept pending.
func TestServerPackWriteFailureDegradesGracefully(t *testing.T) {
	inj := chaos.NewInjector(1, mustChaosSpec(t, "eio-write:match=.tmp-"))
	s, ts := newTestServer(t, Config{
		CacheDir: filepath.Join(t.TempDir(), "cache"),
		FS:       chaos.Flaky(chaos.OS(), inj),
	})
	want := localRendered(t, "henri", 1, 1, "ext-sched")
	for _, phase := range []string{"cold", "repeat"} {
		code, body, cr := postSpec(t, ts.URL, CampaignSpec{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1})
		if code != http.StatusOK {
			t.Fatalf("%s campaign under pack-write failure: %d: %s", phase, code, body)
		}
		if cr.Errors != 0 {
			t.Fatalf("%s: pack-write failure caused %d experiment errors; durability loss must not fail results", phase, cr.Errors)
		}
		if cr.Results[0].Rendered != want[0] {
			t.Fatalf("%s: output drifted under pack-write failure", phase)
		}
		if cached := cr.Results[0].Cached; cached != (phase == "repeat") {
			t.Fatalf("%s: cached = %v", phase, cached)
		}
	}
	if m := s.Metrics(); m.Robustness.DurabilityWarnings == 0 {
		t.Fatalf("durability_warnings = 0: %+v", m.Robustness)
	}
}

// TestHealedDiskServesNextCampaign: cache failures cost only the
// campaign that met them. The first campaign on a seeded cache sees its
// first five pack page-ins fail; once the disk has healed, the next
// campaign starts with a fresh error budget and serves every point from
// the cache.
func TestHealedDiskServesNextCampaign(t *testing.T) {
	spec := CampaignSpec{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1}
	cacheDir, seeded := seedCache(t, spec)
	inj := chaos.NewInjector(1, mustChaosSpec(t, "eio-read:ops=1-5,match=.pack"))
	_, ts := newTestServer(t, Config{CacheDir: cacheDir, FS: chaos.Flaky(chaos.OS(), inj)})
	code, body, sick := postSpec(t, ts.URL, spec)
	if code != http.StatusOK || sick.Errors != 0 {
		t.Fatalf("campaign on a sick disk: %d: %s", code, body)
	}
	if n := inj.InjectedKind(chaos.ReadErr); n != 5 {
		t.Fatalf("%d read faults injected, want 5 (cache %+v)", n, sick.Cache)
	}
	code, body, healed := postSpec(t, ts.URL, spec)
	if code != http.StatusOK || healed.Errors != 0 {
		t.Fatalf("campaign on the healed disk: %d: %s", code, body)
	}
	if healed.Cache.Misses != 0 || healed.Degraded {
		t.Fatalf("healed disk: %d of %d seeded points executed (degraded %v, cache %+v)",
			healed.Cache.Misses, seeded, healed.Degraded, healed.Cache)
	}
}

func mustChaosSpec(t *testing.T, spec string) *chaos.Schedule {
	t.Helper()
	s, err := chaos.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
