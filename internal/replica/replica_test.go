package replica

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/server"
)

// fakeReplica is a minimal stand-in for an interfd daemon: scripted
// /readyz, /campaign and /cache behavior.
type fakeReplica struct {
	t        *testing.T
	ts       *httptest.Server
	ready    atomic.Bool
	submits  atomic.Int64
	gets     atomic.Int64
	puts     atomic.Int64
	campaign func(w http.ResponseWriter, r *http.Request)
	cacheGet func(w http.ResponseWriter, r *http.Request)
}

func newFakeReplica(t *testing.T) *fakeReplica {
	f := &fakeReplica{t: t}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/campaign", func(w http.ResponseWriter, r *http.Request) {
		f.submits.Add(1)
		if f.campaign != nil {
			f.campaign(w, r)
			return
		}
		json.NewEncoder(w).Encode(server.CampaignResponse{ID: "ok"})
	})
	mux.HandleFunc("GET /cache/{sum}", func(w http.ResponseWriter, r *http.Request) {
		f.gets.Add(1)
		if f.cacheGet != nil {
			f.cacheGet(w, r)
			return
		}
		http.NotFound(w, r)
	})
	mux.HandleFunc("PUT /cache/{sum}", func(w http.ResponseWriter, r *http.Request) {
		f.puts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// serveRecord makes the replica's cache answer every GET with a valid
// record for key.
func (f *fakeReplica) serveRecord(key string) {
	rec := bench.PointRecord{Schema: bench.PointSchema, Key: key, Payload: json.RawMessage(`{"v":1}`)}
	body := rec.EncodeBinary()
	f.cacheGet = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(body)
	}
}

func testSpec() server.CampaignSpec {
	return server.CampaignSpec{Experiments: []string{"sim_contention"}, Seed: 1, Runs: 1}
}

func TestParseList(t *testing.T) {
	urls, err := ParseList(" http://a:7077/ , http://b:7077 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://a:7077" || urls[1] != "http://b:7077" {
		t.Fatalf("urls = %v", urls)
	}
	if _, err := ParseList("ftp://nope"); err == nil {
		t.Fatal("non-http URL accepted")
	}
	if _, err := ParseList(" , "); err == nil {
		t.Fatal("empty list accepted")
	}
}

func TestBudgetRefill(t *testing.T) {
	clk := chaos.NewFakeClock()
	b := NewBudget(2, 1, clk)
	if !b.Allow() || !b.Allow() {
		t.Fatal("full bucket refused a token")
	}
	if b.Allow() {
		t.Fatal("empty bucket granted a token")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("bucket did not refill after a second")
	}
	if got := b.Allowed(); got != 3 {
		t.Fatalf("Allowed = %d, want 3", got)
	}
	if got := b.Denied(); got != 1 {
		t.Fatalf("Denied = %d, want 1", got)
	}
}

func TestSubmitFailsOver(t *testing.T) {
	bad, good := newFakeReplica(t), newFakeReplica(t)
	bad.campaign = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}
	s := NewSet([]string{bad.ts.URL, good.ts.URL}, Options{Seed: 1})
	resp, err := s.Submit(testSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != "ok" {
		t.Fatalf("resp.ID = %q", resp.ID)
	}
	if s.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", s.Failovers())
	}
	if s.Retried() != 1 {
		t.Fatalf("Retried = %d, want 1", s.Retried())
	}
}

func TestSubmitSkipsUnreadyReplica(t *testing.T) {
	drain, good := newFakeReplica(t), newFakeReplica(t)
	drain.ready.Store(false)
	s := NewSet([]string{drain.ts.URL, good.ts.URL}, Options{Seed: 1})
	if _, err := s.Submit(testSpec(), ""); err != nil {
		t.Fatal(err)
	}
	if n := drain.submits.Load(); n != 0 {
		t.Fatalf("draining replica received %d submissions", n)
	}
	if s.Failovers() != 0 {
		t.Fatalf("Failovers = %d, want 0 (health gate is not a failover)", s.Failovers())
	}
}

func TestSubmitPermanentErrorDoesNotRetry(t *testing.T) {
	f := newFakeReplica(t)
	f.campaign = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unknown experiment", http.StatusBadRequest)
	}
	s := NewSet([]string{f.ts.URL}, Options{Seed: 1})
	_, err := s.Submit(testSpec(), "")
	se, ok := err.(*SubmitError)
	if !ok {
		t.Fatalf("err = %v, want *SubmitError", err)
	}
	if se.Status != http.StatusBadRequest {
		t.Fatalf("Status = %d", se.Status)
	}
	if n := f.submits.Load(); n != 1 {
		t.Fatalf("4xx was retried: %d submissions", n)
	}
}

func TestSubmitHonorsRetryAfter(t *testing.T) {
	clk := chaos.NewFakeClock()
	f := newFakeReplica(t)
	var n atomic.Int64
	f.campaign = func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(server.CampaignResponse{ID: "ok"})
	}
	s := NewSet([]string{f.ts.URL}, Options{Clock: clk, Seed: 1})
	done := make(chan error, 1)
	go func() {
		_, err := s.Submit(testSpec(), "")
		done <- err
	}()
	// The retry must park on the server's Retry-After, driven by the
	// fake clock — not the default backoff (25ms-scale, not 2s).
	deadline := time.After(5 * time.Second)
	for clk.Waiters() == 0 {
		select {
		case err := <-done:
			t.Fatalf("submission finished without sleeping Retry-After: %v", err)
		case <-deadline:
			t.Fatal("no sleeper appeared")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	clk.Advance(2 * time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 2 {
		t.Fatalf("submissions = %d, want 2", got)
	}
}

func TestSubmitRetryBudgetExhausted(t *testing.T) {
	f := newFakeReplica(t)
	f.campaign = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}
	b := NewBudget(1, 0.001, chaos.Real())
	s := NewSet([]string{f.ts.URL, f.ts.URL}, Options{Budget: b, MaxAttempts: 50, Seed: 1})
	_, err := s.Submit(testSpec(), "")
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want retry-budget failure", err)
	}
	// Capacity 1: the first retry wins the only token, the second is
	// refused — total tries bounded at 2 despite MaxAttempts=50.
	if n := f.submits.Load(); n != 2 {
		t.Fatalf("submissions = %d, want 2 (budget must bound retries)", n)
	}
}

func TestSubmitSendsDeadlineAndKey(t *testing.T) {
	f := newFakeReplica(t)
	var gotKey string
	f.campaign = func(w http.ResponseWriter, r *http.Request) {
		gotKey = r.Header.Get("X-API-Key")
		json.NewEncoder(w).Encode(server.CampaignResponse{ID: "ok"})
	}
	s := NewSet([]string{f.ts.URL}, Options{Seed: 1})
	if _, err := s.Submit(testSpec(), "alice"); err != nil {
		t.Fatal(err)
	}
	if gotKey != "alice" {
		t.Fatalf("X-API-Key = %q", gotKey)
	}
}

// TestHedgedLoadFailsOverOnFastFailure: an I/O error on one replica
// quarantines it and the load is served by another healthy replica,
// counted in the Set's Failovers. The TestHedgedLoad names are older
// than the unhedged cache and are kept for continuity.
func TestHedgedLoadFailsOverOnFastFailure(t *testing.T) {
	const key = "sweep/point=1"
	bad, good := newFakeReplica(t), newFakeReplica(t)
	bad.cacheGet = func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}
	good.serveRecord(key)
	set := NewSet([]string{bad.ts.URL, good.ts.URL}, Options{Seed: 1})
	c := NewCache(set)
	rec, ok, mismatch, ioErr := c.Load(key)
	if !ok || mismatch || ioErr {
		t.Fatalf("Load = ok=%v mismatch=%v ioErr=%v", ok, mismatch, ioErr)
	}
	if rec.Key != key {
		t.Fatalf("rec.Key = %q", rec.Key)
	}
	if set.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", set.Failovers())
	}
	// The quarantined replica is skipped, not failed over from, whichever
	// replica the round robin starts at.
	for i := 0; i < 2; i++ {
		if _, ok, _, ioErr := c.Load(key); !ok || ioErr || set.Failovers() != 1 {
			t.Fatalf("Load after quarantine = ok=%v ioErr=%v, Failovers = %d (want a hit on the healthy replica, 1)",
				ok, ioErr, set.Failovers())
		}
	}
	if n := bad.gets.Load(); n != 1 {
		t.Fatalf("bad replica saw %d GETs, want 1 (one attempt, then quarantine)", n)
	}
}

// TestHedgedLoadMissIsNotHedged: a clean miss is an answer, not a
// failure, and fails over nowhere.
func TestHedgedLoadMissIsNotHedged(t *testing.T) {
	miss := NewSet([]string{newFakeReplica(t).ts.URL, newFakeReplica(t).ts.URL}, Options{Seed: 1})
	if _, ok, mismatch, ioErr := NewCache(miss).Load("sweep/point=3"); ok || mismatch || ioErr {
		t.Fatalf("miss reported ok=%v mismatch=%v ioErr=%v", ok, mismatch, ioErr)
	}
	if miss.Failovers() != 0 {
		t.Fatalf("a clean miss failed over: %d", miss.Failovers())
	}
}

// TestCacheLoadNoHealthyReplica: with every replica down a load is an
// I/O error, never a silent miss.
func TestCacheLoadNoHealthyReplica(t *testing.T) {
	f := newFakeReplica(t)
	f.ready.Store(false)
	c := NewCache(NewSet([]string{f.ts.URL}, Options{Seed: 1}))
	if _, ok, _, ioErr := c.Load("sweep/point=5"); ok || !ioErr {
		t.Fatalf("Load = ok=%v ioErr=%v, want an I/O error", ok, ioErr)
	}
	if f.gets.Load() != 0 {
		t.Fatal("an unready replica was read")
	}
	if err := c.Store("sweep/point=5", bench.PointRecord{Schema: bench.PointSchema}); err == nil {
		t.Fatal("Store with no healthy replica reported success")
	}
}

// TestCacheStoreFailsOver: a PUT refused by one replica lands on
// another, counted in the Set's Failovers.
func TestCacheStoreFailsOver(t *testing.T) {
	good := newFakeReplica(t)
	badTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		http.Error(w, "disk full", http.StatusInternalServerError)
	}))
	t.Cleanup(badTS.Close)
	set := NewSet([]string{badTS.URL, good.ts.URL}, Options{Seed: 1})
	c := NewCache(set)
	rec := bench.PointRecord{Schema: bench.PointSchema, Key: "sweep/point=4"}
	if err := c.Store("sweep/point=4", rec); err != nil {
		t.Fatal(err)
	}
	if good.puts.Load() != 1 {
		t.Fatalf("good replica saw %d PUTs, want 1", good.puts.Load())
	}
	if set.Failovers() != 1 {
		t.Fatalf("Failovers = %d, want 1", set.Failovers())
	}
}
