package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestServerCampaignDedupReleasesPanickedLeader: a campaign whose run
// panics (net/http recovers the handler) releases its spec, so the
// identical resubmission runs afresh and succeeds instead of joining a
// leader that will never finish.
func TestServerCampaignDedupReleasesPanickedLeader(t *testing.T) {
	s, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	var runs atomic.Int64
	s.runFn = func(c *campaign) *CampaignResponse {
		if runs.Add(1) == 1 {
			panic("campaign boom")
		}
		return &CampaignResponse{ID: c.id, Cluster: c.cluster}
	}
	body, err := json.Marshal(CampaignSpec{Experiments: []string{"fig3"}, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// post drives the handler directly, recovering a panic the way the
	// HTTP server does; an httptest server would wait for a hung
	// handler on Close.
	post := func() (code int, panicked any) {
		defer func() { panicked = recover() }()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/campaign", bytes.NewReader(body)))
		return rec.Code, nil
	}
	if _, p := post(); p != "campaign boom" {
		t.Fatalf("first submission recovered %v, want the campaign's panic", p)
	}
	done := make(chan int, 1)
	go func() {
		code, _ := post()
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("resubmission: status %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resubmission still waiting on the panicked leader")
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("runFn ran %d times, want 2", n)
	}
}

// recordingStore is a runner.CacheStore that never hits and keeps
// every record a campaign stores: a source of real point records,
// under their real keys, for a client to forge.
type recordingStore struct {
	mu   sync.Mutex
	recs []bench.PointRecord
}

func (r *recordingStore) Load(string) (bench.PointRecord, bool, bool, bool) {
	return bench.PointRecord{}, false, false, false
}

func (r *recordingStore) Store(key string, rec bench.PointRecord) error {
	rec.Key = key
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	return nil
}

// TestClientCannotFileResults: only the daemon's own campaigns write
// its point cache. A client PUTs fig3's point records under their real
// content addresses (hex sha256 of the full key), each with one payload
// byte flipped and a correct body digest. The daemon refuses the
// writes, serves none of them, and renders what a local run renders.
func TestClientCannotFileResults(t *testing.T) {
	env, err := core.Env("henri", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	exp, ok := core.ByID("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	store := &recordingStore{}
	local := runner.Collect(runner.Run(env, []core.Experiment{exp}, runner.Options{Workers: 2, Cache: store}))
	if local[0].Err != nil {
		t.Fatal(local[0].Err)
	}
	if len(store.recs) == 0 {
		t.Fatal("local fig3 stored no point records")
	}

	_, ts := newTestServer(t, Config{CacheDir: filepath.Join(t.TempDir(), "cache")})
	for _, rec := range store.recs {
		forged := rec
		forged.Payload = append([]byte(nil), rec.Payload...)
		forged.Payload[len(forged.Payload)-1] ^= 1
		body := forged.EncodeBinary()
		addr := sha256.Sum256([]byte(rec.Key))
		digest := sha256.Sum256(body)
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+hex.EncodeToString(addr[:]), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("X-Content-SHA256", hex.EncodeToString(digest[:]))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("PUT of a forged record: %d, want 404 or 405", resp.StatusCode)
		}
	}

	code, body, cr := postSpec(t, ts.URL, CampaignSpec{Experiments: []string{"fig3"}, Seed: 1, Runs: 1})
	if code != http.StatusOK || cr.Errors != 0 {
		t.Fatalf("campaign after the forged PUTs: %d: %s", code, body)
	}
	if cr.Cache.Hits != 0 {
		t.Errorf("campaign served %d point(s) from client-filed records", cr.Cache.Hits)
	}
	if got := cr.Results[0].Rendered; got != local[0].Rendered {
		t.Fatalf("daemon output differs from a local run:\n got %q\nwant %q", got, local[0].Rendered)
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

// TestServerKillAndResume: a daemon killed mid-campaign leaves only
// the pack segments of the experiments it finished. A restarted daemon
// serves the client's resubmission byte-identically, replaying those
// experiments from the point cache and executing exactly the points
// that had not landed; a second resubmission executes nothing.
func TestServerKillAndResume(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{CacheDir: filepath.Join(dir, "cache"), Shards: 2}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The stub runs the first experiment for real (so its points are
	// flushed to the cache) and then parks — a process killed
	// mid-campaign.
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

	// What a cold daemon executes for ext-sched alone: the points the
	// kill left unfinished.
	cold, coldTS := newTestServer(t, Config{})
	if code, body, _ := postSpec(t, coldTS.URL, CampaignSpec{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1}); code != http.StatusOK {
		t.Fatalf("cold ext-sched: %d: %s", code, body)
	}
	rest := cold.Metrics().Cache.Misses
	if rest == 0 {
		t.Fatal("cold ext-sched executed no points")
	}

	b, ts := newTestServer(t, cfg)
	want := localRendered(t, "henri", 1, 1, "fig3", "ext-sched")
	code, body, cr := postSpec(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("resubmit after restart: %d: %s", code, body)
	}
	for i, er := range cr.Results {
		if er.Rendered != want[i] {
			t.Errorf("%s resubmission differs from a clean local run:\n got %q\nwant %q", er.ID, er.Rendered, want[i])
		}
	}
	if !cr.Results[0].Cached {
		t.Errorf("fig3 finished before the kill but was not replayed from the point cache")
	}
	if got := b.Metrics().Cache.Misses; got != rest {
		t.Fatalf("resubmission executed %d points, want %d (ext-sched alone)", got, rest)
	}

	// Every point has landed now: a repeat executes nothing.
	code, body, cr = postSpec(t, ts.URL, spec)
	if code != http.StatusOK {
		t.Fatalf("second resubmission: %d: %s", code, body)
	}
	for i, er := range cr.Results {
		if !er.Cached || er.Rendered != want[i] {
			t.Errorf("%s second resubmission: cached=%v, byte-identical=%v", er.ID, er.Cached, er.Rendered == want[i])
		}
	}
	if got := b.Metrics().Cache.Misses; got != rest {
		t.Fatalf("second resubmission executed %d points, want 0", got-rest)
	}
}
