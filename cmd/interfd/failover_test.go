package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/server"
)

// daemonProc is a real interfd process (not an in-process run()):
// the drill needs an actual SIGKILL, which only a separate pid can
// absorb.
type daemonProc struct {
	cmd *exec.Cmd
	url string
	log *syncBuffer
}

// kill SIGKILLs the daemon — no drain, no flush, the exact failure a
// crashed replica presents to its clients. Safe to call from a client
// goroutine (Errorf, never FailNow).
func (p *daemonProc) kill(t *testing.T) {
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Errorf("SIGKILL %d: %v", p.cmd.Process.Pid, err)
		return
	}
	p.cmd.Wait() // reap; exit status is the signal, not an assertion
}

// buildInterfd compiles the daemon binary once per test run.
func buildInterfd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "interfd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/interfd: %v\n%s", err, out)
	}
	return bin
}

// startDaemonProc execs the binary on an ephemeral port and waits for
// /healthz, mirroring startDaemon for out-of-process replicas.
func startDaemonProc(t *testing.T, bin string, args ...string) *daemonProc {
	t.Helper()
	log := &syncBuffer{}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &daemonProc{cmd: cmd, log: log}
	t.Cleanup(func() {
		if cmd.ProcessState == nil { // not yet reaped: still running
			cmd.Process.Signal(syscall.SIGKILL)
			cmd.Wait()
		}
	})

	deadline := time.Now().Add(15 * time.Second)
	for p.url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; log:\n%s", log.String())
		}
		out := log.String()
		if i := strings.Index(out, "serving on "); i >= 0 {
			rest := out[i+len("serving on "):]
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				p.url = "http://" + rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy; log:\n%s", p.url, log.String())
	return nil
}

// drillView is the deterministic slice of a campaign response —
// rendered bytes and simulation accounting, never wall-clock fields.
func drillView(cr *server.CampaignResponse) string {
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

func drillEnvInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestInterfdFailoverDrill is the end-to-end stampede drill with real
// processes: two interfd replicas share one point-cache directory
// (-cache-dir), a fleet of clients submits campaigns through the
// failover Set, and one replica takes a genuine SIGKILL a third of the
// way in — no drain, no goodbye, in-flight campaigns lost. Every
// client must still finish with output byte-identical to a serial run
// against an untouched daemon, and the survivor must reuse the
// victim's already-computed points from the shared cache rather than
// recomputing the world. Size with FAILOVER_DRILL_CLIENTS /
// FAILOVER_DRILL_PER_CLIENT.
func TestInterfdFailoverDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level failover drill; skipped with -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH; cannot build the daemon binary")
	}
	clients := drillEnvInt("FAILOVER_DRILL_CLIENTS", 6)
	perClient := drillEnvInt("FAILOVER_DRILL_PER_CLIENT", 8)
	total := clients * perClient

	bin := buildInterfd(t)
	queue := strconv.Itoa(total + 8)

	specs := []server.CampaignSpec{
		{Experiments: []string{"fig3"}, Seed: 1, Runs: 1},
		{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1},
		{Experiments: []string{"fig3", "ext-sched"}, Seed: 1, Runs: 1},
	}

	// Oracle: one pristine daemon, serial submissions.
	oracle := startDaemonProc(t, bin, "-data", filepath.Join(t.TempDir(), "oracle"), "-shards", "2", "-q", "-queue", queue)
	oracleSet := replica.NewSet([]string{oracle.url}, replica.Options{Seed: 1})
	want := make([]string, len(specs))
	for i, spec := range specs {
		cr, err := oracleSet.Submit(spec, "")
		if err != nil {
			t.Fatalf("oracle spec %d: %v", i, err)
		}
		if cr.Errors != 0 {
			t.Fatalf("oracle spec %d: %d experiment errors", i, cr.Errors)
		}
		want[i] = drillView(cr)
	}

	// The fleet: two real processes over one shared point cache.
	shared := filepath.Join(t.TempDir(), "shared-points")
	a := startDaemonProc(t, bin, "-data", filepath.Join(t.TempDir(), "a"), "-cache-dir", shared, "-shards", "2", "-q", "-queue", queue)
	b := startDaemonProc(t, bin, "-data", filepath.Join(t.TempDir(), "b"), "-cache-dir", shared, "-shards", "2", "-q", "-queue", queue)

	budget := replica.NewBudget(64, 16, nil)
	set := replica.NewSet([]string{a.url, b.url}, replica.Options{Budget: budget, Seed: 7})

	killAt := int64(total / 3)
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
					a.kill(t) // a real SIGKILL, mid-storm
				}
				idx := (c + k) % len(specs)
				cr, err := set.Submit(specs[idx], fmt.Sprintf("client-%d", c))
				o := outcome{spec: idx, err: err}
				if err == nil {
					o.cmp = drillView(cr)
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
		t.Fatal("replica A was SIGKILLed mid-storm but no submission failed over")
	}
	if budget.Denied() != 0 {
		t.Fatalf("retry budget starved %d retries during a single-replica kill", budget.Denied())
	}

	// Prove the shared directory — not any single replica's in-memory
	// memo — holds the fleet's points: a brand-new replica (cold memo,
	// same -cache-dir) must serve the widest spec entirely from disk.
	fresh := startDaemonProc(t, bin, "-data", filepath.Join(t.TempDir(), "c"), "-cache-dir", shared, "-shards", "2", "-q", "-queue", queue)
	freshSet := replica.NewSet([]string{fresh.url}, replica.Options{Seed: 1})
	cr, err := freshSet.Submit(specs[2], "post-storm")
	if err != nil {
		t.Fatalf("post-storm submission to a fresh replica: %v", err)
	}
	if drillView(cr) != want[2] {
		t.Fatal("post-storm submission differs from the serial oracle")
	}
	if cr.Cache.Misses != 0 || cr.Cache.Hits == 0 {
		t.Fatalf("fresh replica on the shared cache recomputed: %d hits, %d misses (want all hits)",
			cr.Cache.Hits, cr.Cache.Misses)
	}
	t.Logf("drill: %d campaigns, failovers %d, retried %d, budget granted %d, fresh-replica replay %d hits / %d misses",
		total, set.Failovers(), set.Retried(), budget.Allowed(), cr.Cache.Hits, cr.Cache.Misses)
}
