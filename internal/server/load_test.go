package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
)

// loadEnvInt reads a sizing knob from the environment so CI can shrink
// the storm without editing the test.
func loadEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// comparableResult is the deterministic slice of an ExperimentResult:
// everything except wall-clock timings, which legitimately vary between
// a computed and a cache-served campaign.
type comparableResult struct {
	ID         string
	Rendered   string
	Error      string
	SimSeconds float64
	Worlds     int
	Tables     int
	Rows       int
}

func comparableView(cr *CampaignResponse) string {
	var out []comparableResult
	for _, er := range cr.Results {
		out = append(out, comparableResult{
			ID: er.ID, Rendered: er.Rendered, Error: er.Error,
			SimSeconds: er.SimSeconds, Worlds: er.Worlds, Tables: er.Tables, Rows: er.Rows,
		})
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// TestServerLoad is the concurrency battery: many clients hammer one
// daemon with overlapping campaign specs and the test demands
//
//  1. every identical spec yields an identical (deterministic-field)
//     response, no matter which client asked or when;
//  2. the shared point pool + runner.Flight computed every distinct
//     point exactly once across the whole storm — the union U of
//     distinct points is measured first by a serial phase, and the
//     concurrent phase's total cache misses must equal U exactly;
//  3. the p99 campaign latency stays within a (generous) bound and the
//     admission queue never rejected anything (it is sized for the
//     storm).
//
// Size with SERVER_LOAD_CLIENTS and SERVER_LOAD_PER_CLIENT; runs under
// -race in CI with reduced numbers.
func TestServerLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load storm; skipped with -short")
	}
	clients := loadEnvInt("SERVER_LOAD_CLIENTS", 8)
	perClient := loadEnvInt("SERVER_LOAD_PER_CLIENT", 25)

	// Overlapping specs: the third shares every point with the first
	// two, the fourth shares nothing (different seed ⇒ different base
	// key).
	specs := []CampaignSpec{
		{Experiments: []string{"fig3"}, Seed: 1, Runs: 1},
		{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3"}, Seed: 2, Runs: 1},
	}

	// Phase 1 — serial, fresh daemon: measure the union of distinct
	// points. Submitting each spec once in sequence makes every first
	// sighting of a point a miss and every overlap a hit, so the
	// daemon-wide miss counter afterwards *is* |U|.
	serial, serialURL := newLoadServer(t, clients*perClient)
	want := make([]string, len(specs))
	for i, spec := range specs {
		code, body, cr := postSpec(t, serialURL, spec)
		if code != http.StatusOK {
			t.Fatalf("serial spec %d: %d: %s", i, code, body)
		}
		if cr.Errors != 0 {
			t.Fatalf("serial spec %d: %d experiment errors", i, cr.Errors)
		}
		want[i] = comparableView(cr)
	}
	union := serial.Metrics().Cache.Misses
	if union == 0 {
		t.Fatal("serial phase computed nothing")
	}
	if overlap := serial.Metrics().Cache; overlap.Hits+overlap.MemoHits == 0 {
		t.Fatalf("specs do not overlap — the dedup assertion would be vacuous: %+v", overlap)
	}

	// Phase 2 — the storm, against a second fresh daemon with an empty
	// cache: clients × campaigns all at once.
	storm, stormURL := newLoadServer(t, clients*perClient)
	total := clients * perClient
	type outcome struct {
		spec int
		code int
		body string
		cmp  string
	}
	outcomes := make([]outcome, total)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				idx := (c + k) % len(specs)
				code, body, cr := postSpec(t, stormURL, specs[idx])
				o := outcome{spec: idx, code: code, body: string(body)}
				if cr != nil {
					o.cmp = comparableView(cr)
				}
				outcomes[c*perClient+k] = o
			}
		}()
	}
	wg.Wait()

	for i, o := range outcomes {
		if o.code != http.StatusOK {
			t.Fatalf("storm submission %d (spec %d): %d: %s", i, o.spec, o.code, o.body)
		}
		if o.cmp != want[o.spec] {
			t.Fatalf("storm submission %d: response for spec %d differs from the serial run:\n got %s\nwant %s",
				i, o.spec, o.cmp, want[o.spec])
		}
	}

	m := storm.Metrics()
	// The core exactly-once claim: across `total` campaigns sharing
	// points, only the |U| distinct points were ever executed. Everything
	// else was served by the disk cache or by one runner.Flight at one
	// of its three scopes: the per-campaign memo, the cross-campaign
	// point flight, or campaign-level dedup.
	if m.Cache.Misses != union {
		t.Fatalf("storm executed %d points, want exactly the union %d (stats %+v)", m.Cache.Misses, union, m.Cache)
	}
	if got := m.Campaigns.Accepted + m.Campaigns.Deduped; got != int64(total) {
		t.Fatalf("accepted %d + deduped %d != %d submissions", m.Campaigns.Accepted, m.Campaigns.Deduped, total)
	}
	if m.Campaigns.Rejected != 0 {
		t.Fatalf("queue sized for the storm still rejected %d campaigns", m.Campaigns.Rejected)
	}
	if m.Campaigns.QueueDepth != 0 || m.Campaigns.Inflight != 0 {
		t.Fatalf("storm left work behind: %+v", m.Campaigns)
	}
	// Generous sanity bound — this is a laptop-class assertion, not a
	// benchmark; the daemon-mix workload of cmd/benchmark measures the
	// real latency.
	const p99BoundMs = 120_000
	if m.Latency.P99Ms <= 0 || m.Latency.P99Ms > p99BoundMs {
		t.Fatalf("p99 campaign latency %.1fms outside (0, %d]", m.Latency.P99Ms, p99BoundMs)
	}
	t.Logf("storm: %d campaigns from %d clients, %d distinct points computed once, p50 %.1fms p99 %.1fms, %d campaign dedups, %d flight hits",
		total, clients, union, m.Latency.P50Ms, m.Latency.P99Ms, m.Campaigns.Deduped, m.Cache.FlightHits)
}

// newLoadServer builds a daemon whose queue can absorb an entire storm
// (the load test asserts zero rejections; admission-control behaviour
// has its own test).
func newLoadServer(t *testing.T, storm int) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, Config{
		CacheDir:    filepath.Join(t.TempDir(), fmt.Sprintf("cache-%d", storm)),
		Shards:      4,
		QueueDepth:  storm + 8,
		MaxInflight: 4,
	})
	return s, ts.URL
}
