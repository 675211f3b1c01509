package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// syncBuffer is a threadsafe stderr sink: run() writes from its own
// goroutines while the test polls the log for the bound address.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon boots run() on an ephemeral port and returns the base URL
// once /healthz answers, plus the exit-code channel and the log.
func startDaemon(t *testing.T, args []string) (string, chan int, *syncBuffer) {
	t.Helper()
	log := &syncBuffer{}
	exit := make(chan int, 1)
	go func() { exit <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), log) }()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; log:\n%s", log.String())
		}
		out := log.String()
		if i := strings.Index(out, "serving on "); i >= 0 {
			rest := out[i+len("serving on "):]
			if j := strings.IndexByte(rest, ' '); j >= 0 {
				base = "http://" + rest[:j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, exit, log
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy; log:\n%s", base, log.String())
	return "", nil, nil
}

// TestDaemonGracefulShutdown: SIGTERM drains the daemon — the served
// campaign completes, durability state is flushed, the process exits 0,
// and a fresh daemon on the same data directory has nothing to recover.
func TestDaemonGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	base, exit, log := startDaemon(t, []string{"-data", dir, "-shards", "2", "-drain-timeout", "30s"})

	spec, _ := json.Marshal(server.CampaignSpec{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1})
	resp, err := http.Post(base+"/campaign", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign: %d: %s", resp.StatusCode, body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d on SIGTERM; log:\n%s", code, log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit within the drain window; log:\n%s", log.String())
	}
	if out := log.String(); !strings.Contains(out, "drained, exiting") {
		t.Fatalf("drain never completed:\n%s", out)
	}

	// A clean drain leaves no unfinished campaigns behind.
	s, err := server.New(server.Config{
		CacheDir: filepath.Join(dir, "cache"),
		StateDir: filepath.Join(dir, "state"),
		Shards:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.Recovering(); n != 0 {
		t.Fatalf("drained daemon left %d campaign(s) to recover", n)
	}
}

// TestDaemonChaosDrill: the -chaos flag arms the filesystem injector
// (announced with its seed for reproduction) and the daemon still
// serves correct results while its campaign-log appends fail, counting
// each lost append as a durability warning.
func TestDaemonChaosDrill(t *testing.T) {
	dir := t.TempDir()
	base, exit, log := startDaemon(t, []string{
		"-data", dir, "-shards", "2",
		"-chaos", "eio-write:match=campaigns.jsonl", "-chaos-seed", "7",
	})
	if out := log.String(); !strings.Contains(out, "CHAOS ACTIVE") || !strings.Contains(out, "seed 7") {
		t.Fatalf("chaos drill not announced:\n%s", out)
	}
	spec, _ := json.Marshal(server.CampaignSpec{Experiments: []string{"ext-sched"}, Seed: 1, Runs: 1})
	resp, err := http.Post(base+"/campaign", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign under chaos: %d: %s", resp.StatusCode, body)
	}
	var cr server.CampaignResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Errors != 0 {
		t.Fatalf("campaign-log chaos failed the campaign: %s", body)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m server.Metrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Robustness.DurabilityWarnings == 0 {
		t.Fatalf("campaign-log chaos left durability_warnings at 0: %+v", m.Robustness)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("daemon exited %d; log:\n%s", code, log.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit; log:\n%s", log.String())
	}
}

// TestDaemonFlagValidation: malformed flags are usage errors, not
// half-started daemons.
func TestDaemonFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-drain-timeout", "-1s"},
		{"-campaign-timeout", "-1s"},
		{"-queue", "0"},
		{"-chaos", "bogus-kind:p=0.5"},
		{"-chaos", "torn:p=nope"},
	}
	for _, args := range cases {
		var log syncBuffer
		if code := run(args, &log); code != 2 {
			t.Errorf("run(%v) = %d, want 2; log:\n%s", args, code, log.String())
		}
	}
}
