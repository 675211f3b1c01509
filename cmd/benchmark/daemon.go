package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/server"
)

// daemonWorkload drives an in-process daemon with interfd's defaults the
// way the CI workflow's remote step drives interfd
// (.github/workflows/ci.yml): an operation submits the registry at runs
// 1, as `interference -all -runs 1 -remote URL` does, at a seed the
// daemon has not seen, so its points execute, and then submits it again,
// which the daemon answers without executing. No other traffic is
// recorded in the repository, so the workload sends no other request
// shape. Each step, nproc clients with one connection each start one
// operation at once, like nproc CI jobs sharing one daemon, and the next
// step starts when all have their replies: a closed loop, because
// `interference -remote` waits for its reply, in which the daemon
// executes nproc campaigns at once on its nproc shards.
type daemonWorkload struct {
	seed    int64
	workers int
	dir     string
	exps    []string // the experiments every submission lists

	srv     *server.Server
	hs      *httptest.Server
	clients []*http.Client
	dirs    int
	seeds   int64 // loop operations started so far; operation k uses seed+k

	mu   sync.Mutex
	jobs []job // the set-up's, then the first coldChecks of the loops
	bad  error
}

// coldChecks is how many loop operations check re-runs locally.
const coldChecks = 4

// job is the daemon's rendering of the registry at one seed.
type job struct {
	seed     int64
	rendered []string
}

func newDaemonMix(cfg config) (workload, error) {
	var ids []string
	for _, e := range registry() {
		ids = append(ids, e.ID)
	}
	return &daemonWorkload{seed: cfg.seed, workers: cfg.workers, dir: cfg.dir, exps: ids}, nil
}

// setUp starts a fresh daemon on its own cache and state directories
// and runs one operation at the run's seed through it.
func (w *daemonWorkload) setUp() error {
	w.stop()
	w.dirs++
	dir := filepath.Join(w.dir, fmt.Sprintf("daemon-%d", w.dirs))
	srv, err := server.New(server.Config{
		CacheDir: filepath.Join(dir, "cache"),
		StateDir: filepath.Join(dir, "state"),
		Shards:   w.workers,
	})
	if err != nil {
		return err
	}
	w.srv, w.hs = srv, httptest.NewServer(srv.Handler())
	w.clients = nil
	for c := 0; c < w.workers; c++ {
		w.clients = append(w.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   2 * time.Minute,
		})
	}
	cold, repeat, err := w.operation(w.clients[0], w.seed, nil, 0)
	if err != nil {
		return fmt.Errorf("seeding campaign: %w", err)
	}
	if err := sameOutput(cold, repeat); err != nil {
		return fmt.Errorf("seeding campaign's repeat: %w", err)
	}
	if len(w.jobs) > 0 {
		if err := sameOutput(w.jobs[0].rendered, cold); err != nil {
			return fmt.Errorf("set-ups disagree: %w", err)
		}
		return nil
	}
	w.jobs = append(w.jobs, job{w.seed, cold})
	return nil
}

// operation submits the registry at seed twice and returns both
// renderings. It fails on a transport error, a status other than 200 or
// an experiment error.
func (w *daemonWorkload) operation(c *http.Client, seed int64, tr *tracer, op int64) (cold, repeat []string, err error) {
	spec := server.CampaignSpec{Cluster: "henri", Experiments: w.exps, Seed: seed, Runs: 1, Format: "ascii"}
	var out [2][]string
	for i, name := range []string{"cold", "repeat"} {
		start := time.Now()
		status, cr, err := submit(c, w.hs.URL, spec)
		if tr != nil {
			tr.record("request", op, op, start, time.Now(), name)
			countResponse(tr, status, cr)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%s submission at seed %d: %w", name, seed, err)
		}
		if cr.Errors != 0 || len(cr.Results) != len(w.exps) {
			return nil, nil, fmt.Errorf("%s submission at seed %d: %d errors in %d results, want %d",
				name, seed, cr.Errors, len(cr.Results), len(w.exps))
		}
		for _, r := range cr.Results {
			out[i] = append(out[i], r.Rendered)
		}
	}
	return out[0], out[1], nil
}

// submit posts one campaign and decodes a 200 response.
func submit(c *http.Client, url string, spec server.CampaignSpec) (int, *server.CampaignResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Post(url+"/campaign", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var cr server.CampaignResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &cr, nil
}

// countResponse adds a response's accounting to the trace.
func countResponse(tr *tracer, status int, cr *server.CampaignResponse) {
	if status == http.StatusServiceUnavailable {
		tr.add("server.shed", 1)
	}
	if cr == nil {
		return
	}
	tr.add("runner.points", float64(cr.Cache.Points))
	tr.add("runner.executed", float64(cr.Cache.Misses))
	tr.add("runner.memo_hits", float64(cr.Cache.MemoHits))
	tr.add("runner.cache_hits", float64(cr.Cache.Hits))
	tr.add("runner.flight_hits", float64(cr.Cache.FlightHits))
	for _, r := range cr.Results {
		if r.Cached {
			tr.add("server.journal_replays", 1)
		}
	}
	if cr.Deduped {
		tr.add("server.deduped", 1)
	}
	tr.add("server.wall_s", cr.WallMs/1e3)
}

// step starts one operation per client, each at the next unused seed,
// and waits for all of them.
func (w *daemonWorkload) step(tr *tracer) []sample {
	samples := make([]sample, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		w.seeds++
		seed := w.seed + w.seeds
		var op int64
		if tr != nil {
			op = tr.newID()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			cold, repeat, err := w.operation(c, seed, tr, op)
			end := time.Now()
			if tr != nil {
				tr.recordID(op, "operation", 0, op, start, end, fmt.Sprint(seed))
				tr.add("server.latency_s", end.Sub(start).Seconds())
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: operation failed:", err)
			} else {
				w.verify(seed, cold, repeat)
			}
			samples[i] = sample{start: start, end: end, failed: err != nil}
		}()
	}
	wg.Wait()
	return samples
}

// verify records the first repeat whose bytes differ from its cold
// submission's, and keeps the first coldChecks operations for check.
func (w *daemonWorkload) verify(seed int64, cold, repeat []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := sameOutput(cold, repeat); err != nil && w.bad == nil {
		w.bad = fmt.Errorf("repeat at seed %d differs from its cold submission: %w", seed, err)
	}
	if len(w.jobs) < 1+coldChecks {
		w.jobs = append(w.jobs, job{seed, cold})
	}
}

// check re-runs the set-up's campaign and the first loop operations'
// locally, without a cache, and demands the daemon's bytes.
func (w *daemonWorkload) check() error {
	if w.bad != nil {
		return w.bad
	}
	var errs []error
	for _, j := range w.jobs {
		res, err := w.local(j.seed)
		if err != nil {
			return err
		}
		if err := sameOutput(renderings(res), j.rendered); err != nil {
			errs = append(errs, fmt.Errorf("daemon's campaign at seed %d differs from the local run: %w", j.seed, err))
		}
	}
	return errors.Join(errs...)
}

// local runs the workload's experiments at seed in-process without a
// cache.
func (w *daemonWorkload) local(seed int64) ([]runner.Result, error) {
	env, err := core.Env("henri", seed, 1)
	if err != nil {
		return nil, err
	}
	var exps []core.Experiment
	for _, id := range w.exps {
		e, ok := core.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	res := runner.Collect(runner.Run(env, exps, runner.Options{Workers: w.workers}))
	for _, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return res, nil
}

// stop shuts the current daemon down and removes its directories.
func (w *daemonWorkload) stop() {
	if w.hs == nil {
		return
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.hs.Close()
	if err := w.srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: closing daemon:", err)
	}
	os.RemoveAll(filepath.Join(w.dir, fmt.Sprintf("daemon-%d", w.dirs)))
	w.hs, w.srv = nil, nil
}

func (w *daemonWorkload) close() {
	w.stop()
	os.RemoveAll(w.dir)
}
