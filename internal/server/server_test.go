package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/runner"
)

// newTestServer builds a daemon plus an httptest front end, both torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postSpec submits one campaign and returns the HTTP status, the raw
// body, and (on 200) the decoded response.
func postSpec(t *testing.T, url string, spec CampaignSpec) (int, []byte, *CampaignResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, payload, nil
	}
	var cr CampaignResponse
	if err := json.Unmarshal(payload, &cr); err != nil {
		t.Fatalf("decoding campaign response: %v\n%s", err, payload)
	}
	return resp.StatusCode, payload, &cr
}

// localRendered runs the same experiments in-process, bypassing the
// daemon entirely, and returns the rendered tables in order — the
// byte-identity oracle for everything the server serves.
func localRendered(t *testing.T, cluster string, seed int64, runs int, ids ...string) []string {
	t.Helper()
	env, err := core.Env(cluster, seed, runs)
	if err != nil {
		t.Fatal(err)
	}
	var exps []core.Experiment
	for _, id := range ids {
		e, ok := core.ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	res := runner.Collect(runner.Run(env, exps, runner.Options{Workers: 2, Format: "ascii"}))
	var out []string
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("local %s failed: %v", ids[i], r.Err)
		}
		out = append(out, r.Rendered)
	}
	return out
}

// TestServerMatchesLocal: a campaign served by the daemon must render
// byte-identically to the same experiments run in-process — with and
// without the persistent cache, cold and warm.
func TestServerMatchesLocal(t *testing.T) {
	want := localRendered(t, "henri", 1, 1, "fig3", "ext-sched")
	_, ts := newTestServer(t, Config{CacheDir: filepath.Join(t.TempDir(), "cache")})
	spec := CampaignSpec{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1}
	for _, phase := range []string{"cold", "warm"} {
		code, body, cr := postSpec(t, ts.URL, spec)
		if code != http.StatusOK {
			t.Fatalf("%s submit: %d: %s", phase, code, body)
		}
		if cr.Errors != 0 || len(cr.Results) != 2 {
			t.Fatalf("%s response: %d errors, %d results", phase, cr.Errors, len(cr.Results))
		}
		for i, er := range cr.Results {
			if er.Rendered != want[i] {
				t.Errorf("%s %s differs from the local run:\n got %q\nwant %q", phase, er.ID, er.Rendered, want[i])
			}
			if er.Worlds == 0 || er.SimSeconds <= 0 || er.Rows == 0 {
				t.Errorf("%s %s metrics empty: %+v", phase, er.ID, er)
			}
		}
	}
}

// TestServerBadSpecs: hostile submissions are client errors — 400, a
// reason in the body, and a bad_specs counter tick; nothing executes.
func TestServerBadSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var ran atomic.Int64
	inner := s.runFn
	s.runFn = func(c *campaign) *CampaignResponse { ran.Add(1); return inner(c) }
	cases := []struct {
		name, body, want string
	}{
		{"empty object", `{}`, "no experiments"},
		{"not json", `hello`, "decoding"},
		{"unknown field", `{"experiments":["fig3"],"nodes":9}`, "decoding"},
		{"trailing data", `{"experiments":["fig3"]} {"again":1}`, "trailing data"},
		{"unknown experiment", `{"experiments":["figzilla"]}`, "unknown experiment"},
		{"unknown cluster", `{"cluster":"atlantis","experiments":["fig3"]}`, "atlantis"},
		{"runs too high", `{"experiments":["fig3"],"runs":100000}`, "out of range"},
		{"negative runs", `{"experiments":["fig3"],"runs":-3}`, "out of range"},
		{"bad format", `{"experiments":["fig3"],"format":"xml"}`, "unknown format"},
		{"bad faults", `{"experiments":["fig3"],"faults":"explode:now"}`, "explode"},
		{"huge experiment name", `{"experiments":["` + strings.Repeat("x", 4096) + `"]}`, "longer than"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/campaign", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, payload)
		}
		if !strings.Contains(string(payload), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, payload, tc.want)
		}
	}
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d hostile specs executed", got)
	}
	if m := s.Metrics(); m.Campaigns.BadSpecs < int64(len(cases)) {
		t.Fatalf("bad_specs %d, want >= %d", m.Campaigns.BadSpecs, len(cases))
	}
}

// TestServerQueueFull: with a one-slot queue, a second concurrent
// campaign is rejected Slurm-style — 503, Retry-After, and a rejection
// counter tick — and the in-flight campaign is unaffected.
func TestServerQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 1, MaxInflight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runFn = func(c *campaign) *CampaignResponse {
		close(entered)
		<-release
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}

	first := make(chan int, 1)
	go func() {
		code, _, _ := postSpec(t, ts.URL, CampaignSpec{Experiments: []string{"fig3"}, Runs: 1})
		first <- code
	}()
	<-entered

	// A *different* spec (same one would join the in-flight campaign
	// instead of queueing).
	body, _ := json.Marshal(CampaignSpec{Experiments: []string{"ext-sched"}, Runs: 1})
	resp, err := http.Post(ts.URL+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, payload)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 has no Retry-After header")
	}
	if !strings.Contains(string(payload), "queue is full") {
		t.Fatalf("body %q does not explain the rejection", payload)
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("in-flight campaign got %d after a rejection", code)
	}
	if m := s.Metrics(); m.Campaigns.Rejected != 1 || m.Campaigns.Completed != 1 {
		t.Fatalf("counters: %+v", m.Campaigns)
	}
}

// TestServerCampaignDedup: identical concurrent submissions share one
// execution — the leader runs, followers receive the same response
// marked Deduped without executing anything.
func TestServerCampaignDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var runs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	s.runFn = func(c *campaign) *CampaignResponse {
		runs.Add(1)
		close(entered)
		<-release
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}

	spec := CampaignSpec{Experiments: []string{"fig3"}, Runs: 1}
	const followers = 7
	var wg sync.WaitGroup
	codes := make([]int, followers+1)
	deduped := make([]bool, followers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, cr := postSpec(t, ts.URL, spec)
		codes[0], deduped[0] = code, cr != nil && cr.Deduped
	}()
	<-entered
	// The leader is parked inside runFn; every follower that arrives
	// before the release joins it. The grace sleep gives the follower
	// goroutines time to reach the singleflight after their POST.
	for i := 1; i <= followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, cr := postSpec(t, ts.URL, spec)
			codes[i], deduped[i] = code, cr != nil && cr.Deduped
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(release)
	wg.Wait()

	var dedupCount int
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("submission %d: status %d", i, code)
		}
		if deduped[i] {
			dedupCount++
		}
	}
	m := s.Metrics()
	if int(runs.Load())+dedupCount != followers+1 {
		t.Fatalf("%d runs + %d deduped != %d submissions", runs.Load(), dedupCount, followers+1)
	}
	if m.Campaigns.Deduped != int64(dedupCount) || dedupCount == 0 {
		t.Fatalf("deduped counter %d, responses marked %d", m.Campaigns.Deduped, dedupCount)
	}
}

// validRecord builds a minimal well-formed point record for protocol
// tests.
func validRecord(t *testing.T, key string) bench.PointRecord {
	t.Helper()
	return bench.PointRecord{
		Schema:     bench.PointSchema,
		Key:        key,
		Payload:    json.RawMessage(`{"v":1}`),
		SimSeconds: 1,
		Worlds:     1,
	}
}

// TestCacheProtocolVerification: the remote cache endpoint verifies
// sha256 on both directions and refuses misfiled entries.
func TestCacheProtocolVerification(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: filepath.Join(t.TempDir(), "cache")})

	get := func(path string) (int, []byte, http.Header) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b, resp.Header
	}
	put := func(sum string, body []byte, digest string) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+sum, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if digest != "" {
			req.Header.Set(shaHeader, digest)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code, _, _ := get("/cache/nothex"); code != http.StatusBadRequest {
		t.Fatalf("GET bad sum: %d, want 400", code)
	}
	missing := runner.CacheKeySum("no such key")
	if code, _, _ := get("/cache/" + missing); code != http.StatusNotFound {
		t.Fatalf("GET miss: %d, want 404", code)
	}

	// A well-formed record stored under its own content address.
	rec := validRecord(t, "henri/point/1")
	body := rec.EncodeBinary()
	sum := runner.CacheKeySum(rec.Key)
	// The same record as JSON is refused: binary records are the only
	// encoding the protocol speaks.
	asJSON, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if code := put(sum, asJSON, bodySum(asJSON)); code != http.StatusBadRequest {
		t.Fatalf("JSON PUT: %d, want 400", code)
	}
	if code := put(sum, body, ""); code != http.StatusBadRequest {
		t.Fatalf("PUT without digest: %d, want 400", code)
	}
	if code := put(sum, body, strings.Repeat("0", 64)); code != http.StatusBadRequest {
		t.Fatalf("PUT with wrong digest: %d, want 400", code)
	}
	// Misfiled: the body is valid but addressed under a different key's
	// sum.
	wrongSum := runner.CacheKeySum("some other key")
	if code := put(wrongSum, body, bodySum(body)); code != http.StatusBadRequest {
		t.Fatalf("misfiled PUT: %d, want 400", code)
	}
	if code := put(sum, body, bodySum(body)); code != http.StatusNoContent {
		t.Fatalf("valid PUT: %d, want 204", code)
	}

	code, served, hdr := get("/cache/" + sum)
	if code != http.StatusOK {
		t.Fatalf("GET after PUT: %d", code)
	}
	if got := hdr.Get(shaHeader); got != bodySum(served) {
		t.Fatalf("served digest %q does not cover the served bytes", got)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("GET Content-Type %q, want application/octet-stream", ct)
	}
	if !bytes.Equal(served, body) {
		t.Fatal("GET did not serve the stored binary record verbatim")
	}
	m := s.Metrics()
	if m.CacheProtocol.Rejected < 5 || m.CacheProtocol.Puts < 5 || m.CacheProtocol.GetHits < 1 {
		t.Fatalf("protocol counters: %+v", m.CacheProtocol)
	}
}

// TestServerMetricsEndpoint: /metrics serves the counter document and
// /healthz answers.
func TestServerMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, cr := postSpec(t, ts.URL, CampaignSpec{Experiments: []string{"ext-sched"}, Runs: 1}); code != 200 || cr.Errors != 0 {
		t.Fatalf("seed campaign: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Campaigns.Completed != 1 || m.Latency.Count != 1 || m.Latency.P99Ms <= 0 {
		t.Fatalf("metrics after one campaign: %+v", m)
	}
	if m.Cache.Misses == 0 {
		t.Fatalf("cold campaign recorded no point misses: %+v", m.Cache)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hz.StatusCode)
	}
}

// TestRemoteCachePoisoned: a corrupted entry in the daemon's store must
// be detected by the client through the embedded-key check, counted as
// a mismatch, recomputed locally, and never change the output.
func TestRemoteCachePoisoned(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	s, ts := newTestServer(t, Config{CacheDir: cacheDir})
	rc := NewRemoteCache(ts.URL)

	env, err := core.Env("henri", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := core.ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	exps := []core.Experiment{e}

	campaign := func() (*runner.CacheStats, string) {
		stats := &runner.CacheStats{}
		res := runner.Collect(runner.Run(env, exps, runner.Options{Workers: 2, CacheStats: stats, Cache: rc}))
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		return stats, res[0].Rendered
	}

	cold, want := campaign()
	if atomic.LoadInt64(&cold.Misses) == 0 {
		t.Fatal("cold run hit an empty cache")
	}
	warm, got := campaign()
	if got != want {
		t.Fatal("warm remote-cache run differs from cold")
	}
	if atomic.LoadInt64(&warm.Misses) != 0 || atomic.LoadInt64(&warm.Hits) == 0 {
		t.Fatalf("warm run not fully served: %+v", warm)
	}

	// Poison every stored entry: keep it a valid record, but for a
	// different key than its content address claims. Flush the daemon's
	// write-behind buffer into pack segments (the PUTs arrived outside a
	// server-side campaign, so nothing flushed them yet), flip one byte of
	// each record's stored key in place — same length, so the sidecar
	// indexes still locate every record — and hand the directory to a
	// fresh daemon: the restarted-with-a-tampered-store scenario.
	if err := s.cache.Flush(); err != nil {
		t.Fatal(err)
	}
	packs, err := filepath.Glob(filepath.Join(cacheDir, "packs", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	images := make(map[string][]byte, len(packs))
	for _, p := range packs {
		if images[p], err = os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := runner.OpenPointCache(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	err = disk.Entries(func(sum string, data []byte) error {
		var rec bench.PointRecord
		if err := rec.DecodeBinary(data); err != nil {
			return err
		}
		for _, img := range images {
			if at := bytes.Index(img, data); at >= 0 {
				img[at+bytes.Index(data, []byte(rec.Key))] ^= 1
				poisoned++
				return nil
			}
		}
		return fmt.Errorf("record %s is in no pack file", sum[:12])
	})
	if err != nil {
		t.Fatal(err)
	}
	if poisoned == 0 {
		t.Fatal("no cache entries found to poison")
	}
	for p, img := range images {
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts2 := newTestServer(t, Config{CacheDir: cacheDir})
	rc = NewRemoteCache(ts2.URL)

	after, got := campaign()
	if got != want {
		t.Fatal("output changed after cache poisoning — poisoned entries were served")
	}
	if m := atomic.LoadInt64(&after.Mismatches); m != int64(poisoned) {
		t.Fatalf("detected %d mismatches, poisoned %d entries", m, poisoned)
	}
	if atomic.LoadInt64(&after.Misses) != atomic.LoadInt64(&cold.Misses) {
		t.Fatalf("poisoned run recomputed %d points, cold run computed %d",
			atomic.LoadInt64(&after.Misses), atomic.LoadInt64(&cold.Misses))
	}

	// The recompute repaired the store: the next run is fully served
	// again.
	healed, got := campaign()
	if got != want || atomic.LoadInt64(&healed.Misses) != 0 || atomic.LoadInt64(&healed.Mismatches) != 0 {
		t.Fatalf("store not healed after recompute: %+v", healed)
	}
}

// TestServerKillAndResume: a daemon killed mid-campaign (accepted
// logged, one experiment's points cached, no done marker) must resume
// the campaign on restart and then serve the full spec byte-identically
// from the point cache.
func TestServerKillAndResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		CacheDir: filepath.Join(dir, "cache"),
		StateDir: filepath.Join(dir, "state"),
		Shards:   2,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The stub runs the first experiment for real (so its points land in
	// the cache) and then parks — the campaign never logs "done", exactly a
	// process killed mid-campaign.
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	a.runFn = func(c *campaign) *CampaignResponse {
		sub := *c
		sub.exps = c.exps[:1]
		resp := a.runCampaign(&sub)
		close(started)
		<-release
		return resp
	}
	spec := CampaignSpec{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1}
	c, err := compile(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	go a.submit(c)
	<-started
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same state. The new daemon must notice the
	// unfinished campaign and re-run it to completion.
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.Recovering(); got != 1 {
		t.Fatalf("recovering %d campaigns, want 1", got)
	}
	b.WaitRecovery()

	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	code, body, cr := postSpec(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit after restart: %d: %s", code, body)
	}
	want := localRendered(t, "henri", 1, 1, "fig3", "ext-sched")
	for i, er := range cr.Results {
		if !er.Cached {
			t.Errorf("%s not replayed from the point cache after recovery", er.ID)
		}
		if er.Rendered != want[i] {
			t.Errorf("%s replay differs from a clean local run:\n got %q\nwant %q", er.ID, er.Rendered, want[i])
		}
	}

	// A third daemon on the same state has nothing to recover: the done
	// marker landed.
	cclean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cclean.Close()
	if got := cclean.Recovering(); got != 0 {
		t.Fatalf("restart after completion still recovers %d campaigns", got)
	}
}

// TestStateLogTornTail: a torn trailing line (killed mid-append) must
// not poison recovery — entries before the tear load, the tear is
// dropped.
func TestStateLogTornTail(t *testing.T) {
	dir := t.TempDir()
	stateDir := filepath.Join(dir, "state")
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := compile(CampaignSpec{Experiments: []string{"ext-sched"}, Runs: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	accepted, _ := json.Marshal(stateEntry{Schema: stateSchema, ID: c.id, Status: "accepted", Spec: &c.spec})
	log := string(accepted) + "\n" + `{"schema":1,"id":"torn`
	if err := os.WriteFile(filepath.Join(stateDir, "campaigns.jsonl"), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{StateDir: stateDir, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Recovering(); got != 1 {
		t.Fatalf("recovering %d campaigns, want the one before the torn tail", got)
	}
	s.WaitRecovery()
	if m := s.Metrics(); m.Campaigns.Completed != 1 {
		t.Fatalf("recovered campaign did not complete: %+v", m.Campaigns)
	}
}
