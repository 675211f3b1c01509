package replica

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chaos"
	"repro/internal/server"
)

// realDaemon boots a full in-process interfd (real campaign execution,
// not a stub) over cacheDir.
func realDaemon(t *testing.T, cacheDir string, queue int) (*server.Server, *httptest.Server) {
	t.Helper()
	s, err := server.New(server.Config{CacheDir: cacheDir, Shards: 2, QueueDepth: queue, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// soakView is the deterministic slice of a campaign response: rendered
// bytes and simulation accounting, not wall-clock timings.
func soakView(cr *server.CampaignResponse) string {
	type row struct {
		ID, Rendered, Error string
		SimSeconds          float64
		Worlds              int
	}
	var out []row
	for _, er := range cr.Results {
		out = append(out, row{er.ID, er.Rendered, er.Error, er.SimSeconds, er.Worlds})
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func soakEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestFailoverSoak is the stampede drill: two replicas share one
// content-addressed cache directory, eight clients submit a hundred-plus
// campaigns through a failover Set, and one replica is killed (every
// connection refused, the shape a SIGKILL leaves) a third of the way
// in. The contract:
//
//   - every campaign completes with results byte-identical to a serial
//     run on an untouched daemon — failover is invisible in the output;
//   - the retry volume stays inside the token budget (nothing denied,
//     and the retries actually spent are a handful, not a storm);
//   - the kill was actually observed (failovers happened);
//   - total cache misses across both replicas stay bounded by the union
//     of distinct points plus the cross-replica duplication window —
//     killing a replica must not trigger wholesale recomputation.
func TestFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak; skipped with -short")
	}
	clients := soakEnvInt("REPLICA_SOAK_CLIENTS", 8)
	perClient := soakEnvInt("REPLICA_SOAK_PER_CLIENT", 13)
	total := clients * perClient

	specs := []server.CampaignSpec{
		{Experiments: []string{"fig3"}, Seed: 1, Runs: 1},
		{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3"}, Seed: 2, Runs: 1},
	}

	// Oracle phase: a pristine daemon, serial submissions. Its miss
	// count after the phase is the union of distinct points |U|.
	oracle, oracleTS := realDaemon(t, filepath.Join(t.TempDir(), "oracle"), total+8)
	oracleSet := NewSet([]string{oracleTS.URL}, Options{Seed: 1})
	want := make([]string, len(specs))
	for i, spec := range specs {
		cr, err := oracleSet.Submit(spec, "")
		if err != nil {
			t.Fatalf("oracle spec %d: %v", i, err)
		}
		if cr.Errors != 0 {
			t.Fatalf("oracle spec %d: %d experiment errors", i, cr.Errors)
		}
		want[i] = soakView(cr)
	}
	union := oracle.Metrics().Cache.Misses
	if union == 0 {
		t.Fatal("oracle computed nothing")
	}

	// The fleet: two replicas over ONE cache directory, fronted by a
	// kill switch.
	shared := filepath.Join(t.TempDir(), "shared-cache")
	a, aTS := realDaemon(t, shared, total+8)
	b, bTS := realDaemon(t, shared, total+8)
	drill := chaos.NewReplicaDrill()
	budget := NewBudget(64, 16, nil)
	set := NewSet([]string{aTS.URL, bTS.URL}, Options{Transport: drill, Budget: budget, Seed: 7})

	killAt := int64(total / 3)
	victim := strings.TrimPrefix(aTS.URL, "http://")
	var submitted atomic.Int64
	var killed atomic.Bool

	type outcome struct {
		spec int
		cmp  string
		err  error
	}
	outcomes := make([]outcome, total)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				if submitted.Add(1) == killAt && killed.CompareAndSwap(false, true) {
					drill.Kill(victim) // SIGKILL replica A mid-storm
				}
				idx := (c + k) % len(specs)
				cr, err := set.Submit(specs[idx], fmt.Sprintf("client-%d", c))
				o := outcome{spec: idx, err: err}
				if err == nil {
					o.cmp = soakView(cr)
				}
				outcomes[c*perClient+k] = o
			}
		}()
	}
	wg.Wait()

	for i, o := range outcomes {
		if o.err != nil {
			t.Fatalf("storm submission %d (spec %d) failed despite failover: %v", i, o.spec, o.err)
		}
		if o.cmp != want[o.spec] {
			t.Fatalf("storm submission %d: spec %d differs from the serial oracle:\n got %s\nwant %s",
				i, o.spec, o.cmp, want[o.spec])
		}
	}

	if set.Failovers() == 0 {
		t.Fatal("replica was killed mid-storm but no submission failed over")
	}
	if budget.Denied() != 0 {
		t.Fatalf("retry budget starved %d retries; failover demanded more than the budget", budget.Denied())
	}
	// Health gating must keep the retry volume at blip scale: one
	// markDown quarantines the corpse, so only the submissions racing
	// the kill itself pay a retry — not every subsequent campaign.
	if maxRetries := int64(4 * clients); set.Retried() > maxRetries {
		t.Fatalf("retried %d submissions for one kill across %d clients (want <= %d): retry storm",
			set.Retried(), clients, maxRetries)
	}

	// Exactly-once, fleet edition: both replicas share the disk cache,
	// so the only duplicate executions allowed are points two replicas
	// raced to compute before either stored. That window is bounded by
	// the union itself (each point can at worst be computed once per
	// replica) — and must stay there; a failover storm recomputing the
	// world would blow far past it.
	ma, mb := a.Metrics(), b.Metrics()
	misses := ma.Cache.Misses + mb.Cache.Misses
	if misses < union {
		t.Fatalf("fleet misses %d < union %d: the oracle disagrees with the fleet", misses, union)
	}
	if misses > 2*union {
		t.Fatalf("fleet misses %d > 2x union %d: failover recomputed wholesale", misses, union)
	}
	if rejected := ma.Campaigns.Rejected + mb.Campaigns.Rejected; rejected != 0 {
		t.Fatalf("queues sized for the storm still rejected %d", rejected)
	}
	t.Logf("soak: %d campaigns, union %d, fleet misses %d (A %d + B %d), failovers %d, retried %d, budget granted %d",
		total, union, misses, ma.Cache.Misses, mb.Cache.Misses,
		set.Failovers(), set.Retried(), budget.Allowed())
}
