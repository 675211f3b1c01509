// Package replica is the client-side availability layer over a set of
// interfd daemons: a health-gated replica picker, campaign submission
// with failover, and a token-bucket retry budget with jittered backoff
// that bounds how hard a client retries.
//
// The design leans on the property that makes failover uniquely cheap
// here: every sweep point is deterministic and content-addressed, so a
// campaign resubmitted to a second replica re-hits the shared result
// cache instead of recomputing — replay-from-cheap-state rather than
// expensive recovery. What the package must guard against is therefore
// not wasted compute but *retry storms*: a dying replica turning every
// client into a tight resubmission loop. The shared Budget bounds the
// total retry volume; health gating and Retry-After honoring shape
// what remains.
package replica

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Budget is a token-bucket retry budget. Every resubmission of a
// campaign must first win a token; first attempts are free. The
// bucket starts full and refills continuously, so a brief blip retries
// immediately while a dead replica drains the bucket once and then
// fails fast instead of stampeding the survivors.
type Budget struct {
	mu     sync.Mutex
	clock  chaos.Clock
	cap    float64
	tokens float64
	refill float64 // tokens per second
	last   time.Time

	allowed atomic.Int64
	denied  atomic.Int64
}

// NewBudget builds a bucket holding capacity tokens that refills at
// refillPerSec. capacity <= 0 defaults to 32 tokens, refillPerSec <= 0
// to 8/s; a nil clock means the real one.
func NewBudget(capacity int, refillPerSec float64, clock chaos.Clock) *Budget {
	if capacity <= 0 {
		capacity = 32
	}
	if refillPerSec <= 0 {
		refillPerSec = 8
	}
	if clock == nil {
		clock = chaos.Real()
	}
	return &Budget{
		clock:  clock,
		cap:    float64(capacity),
		tokens: float64(capacity),
		refill: refillPerSec,
		last:   clock.Now(),
	}
}

// Allow consumes one retry token, reporting false when the bucket is
// empty — the caller must give up rather than retry.
func (b *Budget) Allow() bool {
	b.mu.Lock()
	now := b.clock.Now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.refill
		if b.tokens > b.cap {
			b.tokens = b.cap
		}
	}
	b.last = now
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if ok {
		b.allowed.Add(1)
	} else {
		b.denied.Add(1)
	}
	return ok
}

// Allowed and Denied report how many retries the budget granted and
// refused; their sum is the total retry demand the client generated.
func (b *Budget) Allowed() int64 { return b.allowed.Load() }
func (b *Budget) Denied() int64  { return b.denied.Load() }

// RetryAfterCap bounds how long a server-sent Retry-After may park a
// client: an absurd or hostile value must not stall a submission for
// minutes, and past it the client's own backoff is smarter.
const RetryAfterCap = 5 * time.Second

// Backoff paces a Set's submission retries. Retry number attempt waits
// the server's Retry-After when it sent one (the server knows its own
// drain rate better than our guess), otherwise 25ms<<attempt capped at
// 1s, with ±50% jitter so a fleet of clients recovering together does
// not stampede the daemon.
type Backoff struct {
	clock chaos.Clock
	mu    sync.Mutex
	rng   *rand.Rand
}

const (
	backoffBase = 25 * time.Millisecond
	backoffMax  = time.Second
)

// NewBackoff builds a backoff sleeping on clock, its jitter seeded by
// seed (0 seeds from the clock).
func NewBackoff(clock chaos.Clock, seed int64) *Backoff {
	if seed == 0 {
		seed = clock.Now().UnixNano()
	}
	return &Backoff{clock: clock, rng: rand.New(rand.NewSource(seed))}
}

// Wait sleeps before retry number attempt (0 for the first retry).
func (b *Backoff) Wait(attempt int, retryAfter time.Duration) {
	d := retryAfter
	if d <= 0 {
		d = backoffBase << attempt
		if d > backoffMax || d <= 0 {
			d = backoffMax
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
