package server

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
)

// Adaptive overload control. The fixed-size admission queue from PR 6
// answered every overload the same way: 503 with a hardcoded
// Retry-After. Under a 2x-capacity storm that is the worst possible
// policy — every client retries on the same schedule, queue sojourns
// grow without bound for the campaigns that *are* admitted, and one
// greedy client can occupy the whole queue. The overload controller
// adds per-client fair queueing in front of the queue: outstanding
// campaigns are counted per client (X-API-Key, falling back to the
// remote address) and each client is capped at its share of the queue,
// QueueDepth over the number of active clients. One stampeding client
// saturates its share and gets 503s while everyone else's campaigns
// keep flowing.
//
// Every 503 carries a Retry-After computed from the observed drain
// rate: (queued+1) / drain campaigns-per-second, clamped — so backoff
// scales with real congestion instead of a constant that is wrong in
// both directions.
type overload struct {
	clock      chaos.Clock
	queueDepth int

	mu          sync.Mutex
	drainPerSec float64 // EWMA campaign completions per second
	lastDone    time.Time
	perClient   map[string]int

	shedFair atomic.Int64 // refused: client over its fair share
}

// ewmaAlpha weights new observations; ~0.2 keeps estimates responsive
// to regime changes without tracking single-campaign noise.
const ewmaAlpha = 0.2

func newOverload(clock chaos.Clock, queueDepth int) *overload {
	return &overload{clock: clock, queueDepth: queueDepth, perClient: map[string]int{}}
}

func ewma(old, sample float64) float64 {
	if old == 0 {
		return sample
	}
	return old + ewmaAlpha*(sample-old)
}

// reserve admits one outstanding campaign for a client, or refuses it
// when the client already holds its fair share of the queue. The share
// is dynamic: queueDepth divided by the number of currently active
// clients (clients with zero outstanding work stop counting), never
// below 1 — a lone client may use the whole queue, two rivals get half
// each.
func (o *overload) reserve(client string) bool {
	if client == "" {
		return true
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	active := len(o.perClient)
	if o.perClient[client] == 0 {
		active++
	}
	share := max(o.queueDepth/active, 1)
	if o.perClient[client] >= share {
		o.shedFair.Add(1)
		return false
	}
	o.perClient[client]++
	return true
}

// release returns a client's reservation (campaign finished or shed).
func (o *overload) release(client string) {
	if client == "" {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.perClient[client] <= 1 {
		delete(o.perClient, client)
	} else {
		o.perClient[client]--
	}
}

// observe feeds one campaign completion into the drain-rate EWMA.
func (o *overload) observe() {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := o.clock.Now()
	if !o.lastDone.IsZero() {
		if dt := now.Sub(o.lastDone).Seconds(); dt > 0 {
			o.drainPerSec = ewma(o.drainPerSec, 1/dt)
		}
	}
	o.lastDone = now
}

// retryAfterSecs computes the Retry-After for a 503: how long until the
// queue ahead of the client has drained at the observed rate, clamped
// to [1, 60] seconds. With no drain history it answers 1 — optimistic,
// but the next rejection will know better.
func (o *overload) retryAfterSecs(queued int64) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.drainPerSec <= 0 {
		return 1
	}
	secs := int(math.Ceil(float64(queued+1) / o.drainPerSec))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// snapshot reports the observed drain rate for /metrics.
func (o *overload) snapshot() (drainPerSec float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.drainPerSec
}
