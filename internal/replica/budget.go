// Package replica is the client-side availability layer over a set of
// interfd daemons: a health-gated replica picker, campaign submission
// and cache reads and writes with failover, and a token-bucket retry
// budget shared across submission and cache traffic.
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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Budget is a token-bucket retry budget. Every retry — a resubmitted
// campaign or a failed-over cache read or write — must first win a
// token; first attempts are free. The bucket starts full and refills
// continuously, so a brief blip retries immediately while a dead
// replica drains the bucket once and then fails fast instead of
// stampeding the survivors. One Budget is shared by a Set and every
// Cache built on it.
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
