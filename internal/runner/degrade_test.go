package runner

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/trace"
)

// faultyStore is a CacheStore whose failure mode is flipped at will.
type faultyStore struct {
	mu      sync.Mutex
	failing bool
	loads   int
	stores  int
	recs    map[string]bench.PointRecord
}

func newFaultyStore() *faultyStore {
	return &faultyStore{recs: make(map[string]bench.PointRecord)}
}

func (s *faultyStore) setFailing(v bool) {
	s.mu.Lock()
	s.failing = v
	s.mu.Unlock()
}

func (s *faultyStore) Load(fullKey string) (bench.PointRecord, bool, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	if s.failing {
		return bench.PointRecord{}, false, false, true
	}
	rec, ok := s.recs[fullKey]
	return rec, ok, false, false
}

func (s *faultyStore) Store(fullKey string, rec bench.PointRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stores++
	if s.failing {
		return errors.New("store down")
	}
	s.recs[fullKey] = rec
	return nil
}

func (s *faultyStore) ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loads + s.stores
}

// TestCampaignDegradesToNoCache: repeated cache I/O errors flip the
// campaign to no-cache mode — later points skip the cache entirely,
// the degradation is flagged in the stats, and output is unharmed.
func TestCampaignDegradesToNoCache(t *testing.T) {
	exps := []core.Experiment{sweepExp("a", 24, nil)}
	plain := Collect(Run(testEnv(t), exps, Options{Workers: 1}))

	store := newFaultyStore()
	store.setFailing(true)
	var stats CacheStats
	res := Collect(Run(testEnv(t), exps, Options{
		Workers: 1, Cache: store, CacheStats: &stats, DegradeAfter: 4,
	}))
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Rendered != plain[0].Rendered {
		t.Errorf("degraded campaign output drifted:\n%s",
			trace.UnifiedDiff("plain", "degraded", plain[0].Rendered, res[0].Rendered))
	}
	if atomic.LoadInt64(&stats.Degraded) != 1 {
		t.Fatalf("stats.Degraded = %d, want 1", stats.Degraded)
	}
	if stats.Skipped == 0 {
		t.Fatal("no cache ops skipped after degradation")
	}
	if stats.Misses != 24 {
		t.Fatalf("misses = %d, want 24", stats.Misses)
	}
	if stats.Errors < 4 {
		t.Fatalf("errors = %d, want >= DegradeAfter", stats.Errors)
	}
	// Serial campaign: after the 4th error (during load+store of early
	// points) no further ops may reach the store.
	if store.ops() >= 24 {
		t.Fatalf("degraded campaign still sent %d ops to the store", store.ops())
	}
}

// TestCampaignDegradeViaFlakyFS: same degradation, but driven through a
// real on-disk cache wrapped in the chaos filesystem — the path the
// soak test and drills exercise.
func TestCampaignDegradeViaFlakyFS(t *testing.T) {
	exps := []core.Experiment{sweepExp("a", 16, nil)}
	plain := Collect(Run(testEnv(t), exps, Options{Workers: 1}))

	inj := chaos.NewInjector(1, mustChaos(t, "enospc:match=.tmp-"))
	cache, err := OpenPointCacheFS(t.TempDir(), chaos.Flaky(chaos.OS(), inj))
	if err != nil {
		t.Fatal(err)
	}
	// Force a pack flush per Store so every write hits the full disk;
	// at the default batching a 16-point campaign never flushes.
	cache.flushEvery = 1
	var stats CacheStats
	res := Collect(Run(testEnv(t), exps, Options{
		Workers: 1, Cache: cache, CacheStats: &stats, DegradeAfter: 3,
	}))
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Rendered != plain[0].Rendered {
		t.Error("output drifted under a full disk")
	}
	if atomic.LoadInt64(&stats.Degraded) != 1 || stats.Skipped == 0 {
		t.Fatalf("full disk did not degrade the campaign: %+v", stats)
	}
}

// TestCampaignContextCancellation: a campaign whose context is already
// expired fails fast — every experiment reports the cancellation
// instead of executing its points.
func TestCampaignContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := int64(0)
	exps := []core.Experiment{sweepExp("a", 4, func(int) { atomic.AddInt64(&calls, 1) })}
	res := Collect(Run(testEnv(t), exps, Options{Workers: 2, Ctx: ctx}))
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "cancelled") {
		t.Fatalf("cancelled campaign err = %v", res[0].Err)
	}
	if atomic.LoadInt64(&calls) != 0 {
		t.Fatalf("%d points executed after cancellation", calls)
	}
}

// TestSharedPoolShardRestart: a task that panics past the executor's
// recovery kills only its shard's drain loop, which restarts — the
// pool keeps executing later work at full strength.
func TestSharedPoolShardRestart(t *testing.T) {
	sp := NewSharedPool(2)
	defer sp.Close()

	// Enqueue the bomb directly (not via runUntil, which would execute
	// it on this goroutine): an idle shard picks it up and panics.
	sp.pool.enqueue(func(int) { panic("poisoned point") }, 1)

	deadline := time.After(2 * time.Second)
	for sp.Restarts() == 0 {
		select {
		case <-deadline:
			t.Fatal("shard never restarted after the panic")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// The pool still runs a full campaign afterwards.
	exps := []core.Experiment{sweepExp("after", 12, nil)}
	res := Collect(Run(testEnv(t), exps, Options{Workers: 2, SharedPool: sp}))
	if res[0].Err != nil {
		t.Fatalf("campaign after shard restart failed: %v", res[0].Err)
	}
}
