package replica

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
)

// fakeReplica is a minimal stand-in for an interfd daemon: scripted
// /readyz and /campaign behavior.
type fakeReplica struct {
	t        *testing.T
	ts       *httptest.Server
	ready    atomic.Bool
	submits  atomic.Int64
	campaign func(w http.ResponseWriter, r *http.Request)
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
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
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

// TestSubmitRetriesLoneReplica: a lone replica's transient failure is
// retried on that replica, although the failure quarantined it for
// longer than the backoff waits.
func TestSubmitRetriesLoneReplica(t *testing.T) {
	f := newFakeReplica(t)
	var n atomic.Int64
	f.campaign = func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(server.CampaignResponse{ID: "ok"})
	}
	s := NewSet([]string{f.ts.URL}, Options{Seed: 1})
	if _, err := s.Submit(testSpec(), ""); err != nil {
		t.Fatal(err)
	}
	if got := f.submits.Load(); got != 2 {
		t.Fatalf("submissions = %d, want 2", got)
	}
	if s.Retried() != 1 || s.Failovers() != 0 {
		t.Fatalf("Retried = %d, Failovers = %d; want 1, 0", s.Retried(), s.Failovers())
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
