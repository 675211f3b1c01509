package runner

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// TestFlightConcurrentCallersShareOneRun: N callers racing on one key
// run fn once; the other N-1 join and receive the leader's value.
func TestFlightConcurrentCallersShareOneRun(t *testing.T) {
	var f Flight[int]
	const n = 16
	var runs, joins, arrived atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	vals := make([]int, n)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		arrived.Add(1)
		v, joined := f.Do("k", func() (int, bool) {
			runs.Add(1)
			close(entered)
			<-release
			return 42, false
		})
		vals[i] = v
		if joined {
			joins.Add(1)
		}
	}
	wg.Add(n)
	go call(0)
	<-entered // the leader holds the key until release
	for i := 1; i < n; i++ {
		go call(i)
	}
	for arrived.Load() < n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // from arrival to the map lookup
	close(release)
	wg.Wait()
	if runs.Load() != 1 || joins.Load() != n-1 {
		t.Fatalf("%d runs, %d joins; want 1 run and %d joins", runs.Load(), joins.Load(), n-1)
	}
	for i, v := range vals {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
}

// TestFlightKeptValueServesLaterCallers: a kept value answers every
// later caller without running fn again.
func TestFlightKeptValueServesLaterCallers(t *testing.T) {
	var f Flight[string]
	f.Do("k", func() (string, bool) { return "first", true })
	v, joined := f.Do("k", func() (string, bool) {
		t.Fatal("fn ran for a kept key")
		return "", false
	})
	if v != "first" || !joined {
		t.Fatalf("got %q joined=%v, want the kept value", v, joined)
	}
}

// TestFlightUnkeptKeyRunsAgain: a value that is not kept is released
// when the leader returns; the next caller runs fn afresh.
func TestFlightUnkeptKeyRunsAgain(t *testing.T) {
	var f Flight[int]
	f.Do("k", func() (int, bool) { return 1, false })
	v, joined := f.Do("k", func() (int, bool) { return 2, false })
	if v != 2 || joined {
		t.Fatalf("got %d joined=%v, want a fresh run", v, joined)
	}
}

// TestFlightPanickingLeaderReleasesKey: the leader re-panics, callers
// that joined it re-raise the same value, and the key is released (even
// though fn asked for nothing, a panic is never kept) so the next
// caller runs fn afresh instead of hanging.
func TestFlightPanickingLeaderReleasesKey(t *testing.T) {
	var f Flight[int]
	entered := make(chan struct{})
	release := make(chan struct{})
	recovered := make(chan any, 4)
	call := func(fn func() (int, bool)) {
		defer func() { recovered <- recover() }()
		f.Do("k", fn)
	}
	go call(func() (int, bool) {
		close(entered)
		<-release
		panic("leader boom")
	})
	<-entered
	const joiners = 3
	for i := 0; i < joiners; i++ {
		go call(func() (int, bool) {
			t.Error("a joiner ran fn while the leader was in flight")
			return 0, true
		})
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < joiners+1; i++ {
		select {
		case p := <-recovered:
			if p != "leader boom" {
				t.Fatalf("caller recovered %v, want the leader's panic", p)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a caller is still waiting on the panicked leader")
		}
	}
	done := make(chan int, 1)
	go func() {
		v, _ := f.Do("k", func() (int, bool) { return 7, true })
		done <- v
	}()
	select {
	case v := <-done:
		if v != 7 {
			t.Fatalf("fresh run got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the key stayed held after its leader panicked")
	}
}

// panicOnceStore is an in-memory CacheStore whose first Load panics: a
// failure that escapes ExecutePoint's recover, so it unwinds the leader
// of the point's memo and flight calls.
type panicOnceStore struct {
	*faultyStore
	fired atomic.Bool
}

func (s *panicOnceStore) Load(fullKey string) (bench.PointRecord, bool, bool, bool) {
	if s.fired.CompareAndSwap(false, true) {
		panic("store boom")
	}
	return s.faultyStore.Load(fullKey)
}

// blockingStore is an in-memory CacheStore whose Loads park until
// release is closed; entered is closed by the first Load.
type blockingStore struct {
	*faultyStore
	entered, release chan struct{}
	once             sync.Once
}

func (s *blockingStore) Load(fullKey string) (bench.PointRecord, bool, bool, bool) {
	s.once.Do(func() { close(s.entered) })
	<-s.release
	return s.faultyStore.Load(fullKey)
}

// collectWithin drains a campaign, failing the test instead of hanging
// when the campaign does not finish in time.
func collectWithin(t *testing.T, results <-chan Result, d time.Duration) []Result {
	t.Helper()
	done := make(chan []Result, 1)
	go func() { done <- Collect(results) }()
	select {
	case res := <-done:
		return res
	case <-time.After(d):
		t.Fatalf("campaign still running after %v", d)
		return nil
	}
}

// TestMemoReleasesPanickedLeader: a point whose leader panics past
// ExecutePoint's recover fails its own experiment, and a second
// experiment of the same campaign requesting the key runs it afresh
// instead of waiting on a memo entry nobody will complete.
func TestMemoReleasesPanickedLeader(t *testing.T) {
	twin1 := sweepExp("twin", 1, nil)
	twin2 := twin1
	twin2.ID = "twin2" // same point key
	store := &panicOnceStore{faultyStore: newFaultyStore()}
	res := collectWithin(t, Run(testEnv(t), []core.Experiment{twin1, twin2},
		Options{Workers: 1, Cache: store}), 5*time.Second)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "store boom") {
		t.Fatalf("panicked leader's experiment: err = %v", res[0].Err)
	}
	if res[1].Err != nil {
		t.Fatalf("second request for the key: %v", res[1].Err)
	}
}

// TestCrossCampaignFlightReleasesPanickedLeader: a later campaign on the same
// point flight runs a key whose leader panicked, instead of joining it
// for the lifetime of the flight.
func TestCrossCampaignFlightReleasesPanickedLeader(t *testing.T) {
	flight := &Flight[bench.PointRecord]{}
	exps := []core.Experiment{sweepExp("shared", 1, nil)}
	store := &panicOnceStore{faultyStore: newFaultyStore()}
	first := collectWithin(t, Run(testEnv(t), exps,
		Options{Workers: 1, Cache: store, Flight: flight}), 5*time.Second)
	if first[0].Err == nil || !strings.Contains(first[0].Err.Error(), "store boom") {
		t.Fatalf("panicked campaign: err = %v", first[0].Err)
	}
	later := collectWithin(t, Run(testEnv(t), exps,
		Options{Workers: 1, Cache: store, Flight: flight}), 5*time.Second)
	if later[0].Err != nil {
		t.Fatalf("later campaign: %v", later[0].Err)
	}
}

// TestCancelledCampaignJoinsNothing: a campaign whose context already
// expired fails its points at once, even when another campaign on the
// same flight is computing them; it neither waits for that leader nor
// adopts its record.
func TestCancelledCampaignJoinsNothing(t *testing.T) {
	flight := &Flight[bench.PointRecord]{}
	exps := []core.Experiment{sweepExp("shared", 1, nil)}
	store := &blockingStore{faultyStore: newFaultyStore(),
		entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(store.release) })
	defer release()
	leader := Run(testEnv(t), exps, Options{Workers: 1, Cache: store, Flight: flight})
	<-store.entered // the leader holds the key, parked in Load

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := collectWithin(t, Run(testEnv(t), exps,
		Options{Workers: 1, Flight: flight, Ctx: ctx}), 2*time.Second)
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "cancelled") {
		t.Fatalf("cancelled campaign: err = %v", res[0].Err)
	}
	release()
	if res := collectWithin(t, leader, 5*time.Second); res[0].Err != nil {
		t.Fatalf("leader campaign: %v", res[0].Err)
	}
}
