package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/server"
)

// Set is a health-gated replica set: a list of interfd base URLs, a
// cached /readyz verdict per replica, and a round-robin picker that
// skips replicas known to be down or draining. Submission fails over:
// a refused connection, a 5xx, or a draining daemon marks the replica
// down and resubmits the campaign to a healthy one, budget-gated and
// honoring the server's Retry-After; with no healthy replica left, the
// one that failed last is retried. Exactly-once execution is not the
// Set's job — it is bounded by the replicas' shared content-addressed
// cache and campaign singleflight, which turn a resubmission into a
// cheap cache replay.
type Set struct {
	urls   []string
	clock  chaos.Clock
	budget *Budget

	client      *http.Client // submissions: campaigns legitimately run minutes
	probeClient *http.Client // /readyz probes: answers are instant or useless
	backoff     *Backoff

	maxAttempts int

	mu    sync.Mutex
	state []health
	next  int // round-robin rotation

	failovers   atomic.Int64 // submissions that moved to another replica
	submissions atomic.Int64
	retried     atomic.Int64 // submission retries (any replica)
}

type health struct {
	healthy bool
	checked time.Time
}

const (
	probeTTL      = time.Second      // how long a healthy verdict is trusted
	downTTL       = 2 * time.Second  // how long a failed replica is quarantined
	submitTimeout = 30 * time.Minute // one submission round trip: a campaign legitimately computes for a long time
)

// Options tunes a Set; the zero value is production defaults.
type Options struct {
	// Transport replaces the HTTP transport (chaos drills).
	Transport http.RoundTripper
	// Clock paces backoff and health TTLs; nil means the real clock.
	Clock chaos.Clock
	// Budget gates retries; nil builds a default NewBudget.
	Budget *Budget
	// MaxAttempts bounds submission tries across all replicas
	// (default 2*len(urls)+2).
	MaxAttempts int
	// Seed makes backoff jitter reproducible in tests; 0 seeds from
	// the clock.
	Seed int64
}

// ParseList splits a comma-separated replica list ("http://a:7077,
// http://b:7077"), trimming space and trailing slashes. Every entry
// must be an http(s) URL.
func ParseList(s string) ([]string, error) {
	var urls []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			return nil, fmt.Errorf("replica: %q is not an http(s) URL", part)
		}
		for len(part) > 0 && part[len(part)-1] == '/' {
			part = part[:len(part)-1]
		}
		urls = append(urls, part)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("replica: empty replica list")
	}
	return urls, nil
}

// NewSet builds a replica set over urls (see ParseList).
func NewSet(urls []string, opts Options) *Set {
	if opts.Clock == nil {
		opts.Clock = chaos.Real()
	}
	if opts.Budget == nil {
		opts.Budget = NewBudget(0, 0, opts.Clock)
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2*len(urls) + 2
	}
	return &Set{
		urls:        urls,
		clock:       opts.Clock,
		budget:      opts.Budget,
		client:      &http.Client{Timeout: submitTimeout, Transport: opts.Transport},
		probeClient: &http.Client{Timeout: 2 * time.Second, Transport: opts.Transport},
		backoff:     NewBackoff(opts.Clock, opts.Seed),
		maxAttempts: opts.MaxAttempts,
		state:       make([]health, len(urls)),
	}
}

// URLs reports the replica base URLs in order.
func (s *Set) URLs() []string { return append([]string(nil), s.urls...) }

// Budget exposes the retry budget for the client's recap.
func (s *Set) Budget() *Budget { return s.budget }

// Failovers counts submissions that moved to a different replica after
// a failure.
func (s *Set) Failovers() int64 { return s.failovers.Load() }

// Retried counts submission retries (same or different replica).
func (s *Set) Retried() int64 { return s.retried.Load() }

// healthyAt reports replica i's cached health, reprobing /readyz when
// the verdict is stale. The health cache is deliberately loose — two
// goroutines may probe concurrently; both verdicts are fresh.
func (s *Set) healthyAt(i int) bool {
	s.mu.Lock()
	st := s.state[i]
	s.mu.Unlock()
	ttl := probeTTL
	if !st.healthy && !st.checked.IsZero() {
		ttl = downTTL
	}
	if !st.checked.IsZero() && s.clock.Now().Before(st.checked.Add(ttl)) {
		return st.healthy
	}
	h := s.probe(i)
	s.mu.Lock()
	s.state[i] = health{healthy: h, checked: s.clock.Now()}
	s.mu.Unlock()
	return h
}

// probe asks one replica whether it would accept a submission right
// now: /readyz answers 503 while draining or with a full queue, which
// is exactly the signal to steer new campaigns elsewhere.
func (s *Set) probe(i int) bool {
	resp, err := s.probeClient.Get(s.urls[i] + "/readyz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// markDown quarantines a replica after an observed failure: the picker
// skips it for downTTL before a probe may rehabilitate it.
func (s *Set) markDown(i int) {
	s.mu.Lock()
	s.state[i] = health{healthy: false, checked: s.clock.Now()}
	s.mu.Unlock()
}

// pick returns the next healthy replica round-robin, or ok=false when
// none answers its probe.
func (s *Set) pick() (int, bool) {
	s.mu.Lock()
	start := s.next
	s.next = (s.next + 1) % len(s.urls)
	s.mu.Unlock()
	for k := 0; k < len(s.urls); k++ {
		i := (start + k) % len(s.urls)
		if s.healthyAt(i) {
			return i, true
		}
	}
	return 0, false
}

// SubmitError is a permanent, replica-independent submission failure
// (the daemon answered 4xx); retrying elsewhere cannot change it.
type SubmitError struct {
	Status int
	Msg    string
}

func (e *SubmitError) Error() string {
	return fmt.Sprintf("daemon rejected the campaign: %d: %s", e.Status, e.Msg)
}

// Submit posts one campaign spec to a healthy replica, failing over on
// refused connections, 5xx answers and draining daemons. Each retry
// consumes a budget token and sleeps the server's Retry-After when one
// was sent (capped), else jittered exponential backoff. A failed
// replica is quarantined for downTTL, which outlasts every backoff, so
// when no replica is healthy the retry goes back to the one that failed
// last: a lone daemon's transient failure (a 5xx, a cut response, a
// full queue) is retried, not reported as an empty fleet. apiKey
// (optional) identifies the client for fair queueing.
func (s *Set) Submit(spec server.CampaignSpec, apiKey string) (*server.CampaignResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	s.submissions.Add(1)
	var lastErr error
	lastFailed := -1
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		i, ok := s.pick()
		if !ok && lastFailed >= 0 {
			i, ok = lastFailed, true
		}
		if !ok {
			lastErr = fmt.Errorf("no replica of %s is healthy", strings.Join(s.urls, ","))
		} else {
			if lastFailed >= 0 && i != lastFailed {
				s.failovers.Add(1)
			}
			var resp *server.CampaignResponse
			resp, retryAfter, err = s.submitOnce(i, body, apiKey)
			if err == nil {
				return resp, nil
			}
			if se, permanent := err.(*SubmitError); permanent {
				return nil, se
			}
			s.markDown(i)
			lastFailed = i
			lastErr = err
		}
		if attempt+1 >= s.maxAttempts {
			return nil, fmt.Errorf("submission failed after %d attempts: %w", attempt+1, lastErr)
		}
		if !s.budget.Allow() {
			return nil, fmt.Errorf("retry budget exhausted after %d attempts: %w", attempt+1, lastErr)
		}
		s.retried.Add(1)
		s.backoff.Wait(attempt, retryAfter)
	}
}

// submitOnce performs one POST /campaign against replica i.
func (s *Set) submitOnce(i int, body []byte, apiKey string) (*server.CampaignResponse, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, s.urls[i]+"/campaign", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("submitting campaign to %s: %w", s.urls[i], err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("reading campaign response from %s: %w", s.urls[i], err)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, 0, &SubmitError{Status: resp.StatusCode, Msg: string(bytes.TrimSpace(payload))}
	default:
		ra, _ := ParseRetryAfter(resp.Header.Get("Retry-After"), RetryAfterCap)
		return nil, ra, fmt.Errorf("%s answered %s: %s", s.urls[i], resp.Status, bytes.TrimSpace(payload))
	}
	var cr server.CampaignResponse
	if err := json.Unmarshal(payload, &cr); err != nil {
		return nil, 0, fmt.Errorf("decoding campaign response from %s: %w", s.urls[i], err)
	}
	return &cr, 0, nil
}
