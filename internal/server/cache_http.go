package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/runner"
)

// The remote cache protocol promotes the on-disk point cache to a
// network service, shaped like a remote build cache:
//
//	GET /cache/{sum}  -> 200 + record bytes (+ X-Content-SHA256), 404 miss
//	PUT /cache/{sum}  <- record bytes + X-Content-SHA256, 204 on store
//
// {sum} is the content address: lowercase hex sha256 of the record's
// full point key (runner.CacheKeySum); any other spelling is a 400 on
// both verbs. Record bytes travel as application/octet-stream in the
// binary record encoding (bench.PointRecord.EncodeBinary, "IPR1"
// framing) — the only encoding either end accepts. Verification happens on both ends. The server
// refuses a PUT whose body digest does not match its header, whose body
// is not a binary record, or whose embedded key does not hash to the
// addressed sum, so a client can never misfile an entry;
// the client re-verifies the body digest and the embedded key on GET,
// so a poisoned server entry is detected (counted as a mismatch,
// mirroring the on-disk cache) and recomputed, never served.

const shaHeader = "X-Content-SHA256"

func bodySum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// validSum accepts only the spelling runner.CacheKeySum produces.
func validSum(sum string) bool {
	return len(sum) == sha256.Size*2 && strings.Trim(sum, "0123456789abcdef") == ""
}

// handleCacheGet serves the raw stored record for a content address.
// Key verification is the client's job (the server only knows the
// hashed address, not which full key the client wants), but the server
// always stamps the body digest so transport corruption is detectable.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	s.proto.gets.Add(1)
	sum := r.PathValue("sum")
	if !validSum(sum) {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: cache key must be a lowercase hex sha256", http.StatusBadRequest)
		return
	}
	if s.cache == nil {
		http.Error(w, "interfd: no persistent cache configured", http.StatusNotFound)
		return
	}
	data, err := s.cache.LoadSum(sum)
	if err != nil {
		if os.IsNotExist(err) {
			http.NotFound(w, r)
			return
		}
		http.Error(w, "interfd: reading cache entry", http.StatusInternalServerError)
		return
	}
	s.proto.getHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(shaHeader, bodySum(data))
	w.Write(data)
}

// handleCachePut stores a record after verifying it end to end: the
// body digest must match the X-Content-SHA256 header, the body must
// decode as a current-schema record, and the embedded key must hash to
// the addressed sum.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	s.proto.puts.Add(1)
	sum := r.PathValue("sum")
	if !validSum(sum) {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: cache key must be a lowercase hex sha256", http.StatusBadRequest)
		return
	}
	if s.cache == nil {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: no persistent cache configured", http.StatusNotImplemented)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: reading body", http.StatusBadRequest)
		return
	}
	if len(body) > maxSpecBytes {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: cache entry too large", http.StatusRequestEntityTooLarge)
		return
	}
	if got, want := bodySum(body), r.Header.Get(shaHeader); want == "" || got != want {
		s.proto.rejected.Add(1)
		http.Error(w, fmt.Sprintf("interfd: body digest %s does not match %s header %q", got, shaHeader, want),
			http.StatusBadRequest)
		return
	}
	var rec bench.PointRecord
	if err := rec.DecodeBinary(body); err != nil {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: cache entry is not a binary point record", http.StatusBadRequest)
		return
	}
	if rec.Schema != bench.PointSchema {
		s.proto.rejected.Add(1)
		http.Error(w, fmt.Sprintf("interfd: record schema %d, want %d", rec.Schema, bench.PointSchema),
			http.StatusBadRequest)
		return
	}
	if rec.Key == "" || runner.CacheKeySum(rec.Key) != sum {
		s.proto.rejected.Add(1)
		http.Error(w, "interfd: record key does not hash to the addressed sum (misfiled entry refused)",
			http.StatusBadRequest)
		return
	}
	if err := s.cache.Store(rec.Key, rec); err != nil {
		http.Error(w, "interfd: storing cache entry", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// RemoteCache is a runner.CacheStore backed by a daemon's cache
// protocol: a local campaign pointed at it shares computed points with
// every other client of the same daemon. All verification mirrors the
// on-disk cache — a poisoned remote entry surfaces as a key mismatch
// and is recomputed, never trusted.
//
// Transient failures — connection refusals, 5xx bursts, truncated
// bodies — are retried with jittered exponential backoff before the
// operation is reported as an I/O error (at which point the caller
// falls back to recomputing the point). Protocol-level refusals (4xx,
// key mismatches, schema drift) are never retried: repeating them
// cannot change the answer.
type RemoteCache struct {
	base   string
	client *http.Client

	retries    int
	backoff    *Backoff
	reqTimeout time.Duration // per-request deadline; a hung daemon cannot stall a worker shard
	retried    atomic.Int64
	stats      *runner.CacheStats // optional; Retries flows into it
}

// RetryAfterCap bounds how long a server-sent Retry-After may park a
// client: an absurd or hostile value must not stall a worker for
// minutes when recomputing the point locally is always available, and
// past it the client's own backoff is smarter.
const RetryAfterCap = 5 * time.Second

// Backoff paces one remote client's retries; RemoteCache and the
// replica set's submissions each pace theirs with one. Retry number
// attempt waits the server's Retry-After when it sent one (the server
// knows its own drain rate better than our guess), otherwise
// 25ms<<attempt capped at 1s, with ±50% jitter so a fleet of clients
// recovering together does not stampede the daemon.
type Backoff struct {
	base, max time.Duration
	clock     chaos.Clock
	mu        sync.Mutex
	rng       *rand.Rand
}

// NewBackoff builds a backoff sleeping on clock, its jitter seeded by
// seed (0 seeds from the clock).
func NewBackoff(clock chaos.Clock, seed int64) *Backoff {
	if seed == 0 {
		seed = clock.Now().UnixNano()
	}
	return &Backoff{base: 25 * time.Millisecond, max: time.Second, clock: clock,
		rng: rand.New(rand.NewSource(seed))}
}

// Wait sleeps before retry number attempt (0 for the first retry).
func (b *Backoff) Wait(attempt int, retryAfter time.Duration) {
	d := retryAfter
	if d <= 0 {
		d = b.base << attempt
		if d > b.max || d <= 0 {
			d = b.max
		}
		b.mu.Lock()
		d = time.Duration(float64(d) * (0.5 + b.rng.Float64()))
		b.mu.Unlock()
	}
	b.clock.Sleep(d)
}

// ParseRetryAfter interprets a Retry-After header as delay seconds.
// Absent, non-numeric (HTTP-dates are not produced by interfd) or
// negative values report ok=false — the caller falls back to its own
// jittered exponential backoff. Huge values are capped to max.
func ParseRetryAfter(v string, max time.Duration) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs * float64(time.Second))
	if max > 0 && (d > max || d < 0) { // < 0: float overflow into the sign bit
		d = max
	}
	return d, true
}

// NewRemoteCache builds a store talking to the daemon at baseURL (e.g.
// "http://host:7077"), with 3 retries and 25ms–1s backoff by default.
func NewRemoteCache(baseURL string) *RemoteCache {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &RemoteCache{
		base:       baseURL,
		client:     &http.Client{},
		retries:    3,
		backoff:    NewBackoff(chaos.Real(), 0),
		reqTimeout: 10 * time.Second,
	}
}

// SetTransport installs an http.RoundTripper (e.g. a chaos.Transport
// for fault drills).
func (rc *RemoteCache) SetTransport(rt http.RoundTripper) { rc.client.Transport = rt }

// SetRetries tunes the retry budget and backoff window; retries < 0 or
// non-positive delays keep the current values.
func (rc *RemoteCache) SetRetries(retries int, base, max time.Duration) {
	if retries >= 0 {
		rc.retries = retries
	}
	if base > 0 {
		rc.backoff.base = base
	}
	if max > 0 {
		rc.backoff.max = max
	}
}

// SetRequestTimeout bounds each individual cache round trip (default
// 10s); d <= 0 keeps the current value. Without it a daemon that
// accepts the connection and then hangs would stall a worker shard
// forever — invisibly to the circuit breaker, which only sees
// operations that return.
func (rc *RemoteCache) SetRequestTimeout(d time.Duration) {
	if d > 0 {
		rc.reqTimeout = d
	}
}

// AttachStats mirrors the retry counter into a campaign's CacheStats
// so recaps and responses report it.
func (rc *RemoteCache) AttachStats(s *runner.CacheStats) { rc.stats = s }

// Retries reports how many transient failures were retried.
func (rc *RemoteCache) Retries() int64 { return rc.retried.Load() }

// retryable reports whether an HTTP status is worth retrying: server
// errors and overload responses are transient, everything else is a
// protocol answer.
func retryable(status int) bool {
	switch status {
	case http.StatusInternalServerError, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// noteRetry counts one retried attempt and sleeps its backoff.
func (rc *RemoteCache) noteRetry(attempt int, retryAfter time.Duration) {
	rc.retried.Add(1)
	if rc.stats != nil {
		atomic.AddInt64(&rc.stats.Retries, 1)
	}
	rc.backoff.Wait(attempt, retryAfter)
}

// Load implements runner.CacheStore over GET /cache/{sum}, retrying
// transient failures.
func (rc *RemoteCache) Load(fullKey string) (rec bench.PointRecord, ok, mismatch, ioErr bool) {
	for attempt := 0; ; attempt++ {
		var transient bool
		var retryAfter time.Duration
		rec, ok, mismatch, ioErr, transient, retryAfter = rc.loadOnce(fullKey)
		if !transient || attempt >= rc.retries {
			return rec, ok, mismatch, ioErr
		}
		rc.noteRetry(attempt, retryAfter)
	}
}

func (rc *RemoteCache) loadOnce(fullKey string) (rec bench.PointRecord, ok, mismatch, ioErr, transient bool, retryAfter time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		rc.base+"/cache/"+runner.CacheKeySum(fullKey), nil)
	if err != nil {
		return bench.PointRecord{}, false, false, true, false, 0
	}
	resp, err := rc.client.Do(req)
	if err != nil {
		return bench.PointRecord{}, false, false, true, true, 0
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusNotFound:
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			// The connection died mid-response: the miss answer itself is
			// suspect, so treat it as a transport fault, not a clean miss.
			return bench.PointRecord{}, false, false, true, true, 0
		}
		return bench.PointRecord{}, false, false, false, false, 0
	default:
		io.Copy(io.Discard, resp.Body)
		retryAfter, _ = ParseRetryAfter(resp.Header.Get("Retry-After"), RetryAfterCap)
		return bench.PointRecord{}, false, false, true, retryable(resp.StatusCode), retryAfter
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes+1))
	if err != nil || len(body) > maxSpecBytes {
		// A cut connection mid-body; the next attempt gets fresh bytes.
		return bench.PointRecord{}, false, false, true, true, 0
	}
	if want := resp.Header.Get(shaHeader); want != "" && bodySum(body) != want {
		// Transport corruption: the bytes do not match the digest the
		// server computed over what it stored.
		return bench.PointRecord{}, false, false, true, true, 0
	}
	if err := rec.DecodeBinary(body); err != nil {
		return bench.PointRecord{}, false, false, true, true, 0
	}
	if rec.Schema != bench.PointSchema {
		return bench.PointRecord{}, false, false, false, false, 0
	}
	if rec.Key != fullKey {
		// Poisoned entry: retrying would fetch the same bytes.
		return bench.PointRecord{}, false, true, false, false, 0
	}
	return rec, true, false, false, false, 0
}

// Store implements runner.CacheStore over PUT /cache/{sum}, retrying
// transient failures.
func (rc *RemoteCache) Store(fullKey string, rec bench.PointRecord) error {
	rec.Key = fullKey
	body := rec.EncodeBinary()
	for attempt := 0; ; attempt++ {
		err, transient, retryAfter := rc.storeOnce(fullKey, body)
		if !transient || attempt >= rc.retries {
			return err
		}
		rc.noteRetry(attempt, retryAfter)
	}
}

func (rc *RemoteCache) storeOnce(fullKey string, body []byte) (err error, transient bool, retryAfter time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), rc.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		rc.base+"/cache/"+runner.CacheKeySum(fullKey), bytes.NewReader(body))
	if err != nil {
		return err, false, 0
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(shaHeader, bodySum(body))
	resp, err := rc.client.Do(req)
	if err != nil {
		return err, true, 0
	}
	defer resp.Body.Close()
	_, copyErr := io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		retryAfter, _ = ParseRetryAfter(resp.Header.Get("Retry-After"), RetryAfterCap)
		return fmt.Errorf("server: cache PUT rejected: %s", resp.Status), retryable(resp.StatusCode), retryAfter
	}
	if copyErr != nil {
		// Ack status arrived but the connection died under it; the store
		// may or may not have landed. PUTs are idempotent — retry.
		return fmt.Errorf("server: cache PUT ack truncated: %w", copyErr), true, 0
	}
	return nil, false, 0
}
