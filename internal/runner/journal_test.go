package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// fakeExp builds a cheap deterministic experiment that renders one row;
// calls, when non-nil, counts executions (shared across workers only in
// single-worker tests).
func fakeExp(id string, calls *int) core.Experiment {
	return core.Experiment{ID: id, Title: id, Run: func(bench.Env) []*trace.Table {
		if calls != nil {
			*calls++
		}
		tb := trace.NewTable("t:"+id, "v")
		tb.Add(id)
		return []*trace.Table{tb}
	}}
}

func tmpJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "j.jsonl")
}

func TestJournalAppendLookupReload(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := JournalEntry{ID: "fig3", Cluster: "henri", Hash: "abc", Rendered: "table\n", Worlds: 2, Rows: 5}
	if err := j.Append(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Lookup("fig3", "other"); ok {
		t.Fatal("Lookup matched a different hash")
	}
	got, ok := j.Lookup("fig3", "abc")
	if !ok || got.Rendered != "table\n" || got.Worlds != 2 {
		t.Fatalf("Lookup after Append: %+v, ok=%v", got, ok)
	}
	j.Close()

	// Reload from disk: the entry persists.
	j2, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got, ok := j2.Lookup("fig3", "abc"); !ok || got.Rendered != "table\n" {
		t.Fatalf("Lookup after reload: %+v, ok=%v", got, ok)
	}
	if j2.Len() != 1 {
		t.Fatalf("reloaded journal holds %d entries, want 1", j2.Len())
	}
}

// TestJournalToleratesTruncatedTail: a campaign killed mid-append
// leaves a partial final line; opening the journal drops it and keeps
// every complete entry.
func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := tmpJournal(t)
	j, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalEntry{ID: "a", Hash: "h", Rendered: "A\n"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"schema":1,"id":"b","hash":"h","rend`) // torn write, no newline
	f.Close()

	j2, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatalf("truncated tail not tolerated: %v", err)
	}
	defer j2.Close()
	if _, ok := j2.Lookup("a", "h"); !ok {
		t.Fatal("complete entry lost")
	}
	if _, ok := j2.Lookup("b", "h"); ok {
		t.Fatal("torn entry resurrected")
	}
	// Appending after recovery starts a fresh valid line.
	if err := j2.Append(JournalEntry{ID: "c", Hash: "h", Rendered: "C\n"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatalf("reopen after recovery append: %v", err)
	}
	defer j3.Close()
	if _, ok := j3.Lookup("c", "h"); !ok {
		t.Fatal("post-recovery append lost")
	}
}

// TestJournalSkipsMidFileCorruption: a record damaged mid-file (torn
// write isolated on its own line, stray garbage) is skipped, counted
// and logged; every intact record before AND after it still loads. One
// bad record must never cost the rest of the journal.
func TestJournalSkipsMidFileCorruption(t *testing.T) {
	path := tmpJournal(t)
	body := `{"schema":1,"id":"before","hash":"h"}
garbage not json
{"schema":1,"id":"after","hash":"h"}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged []string
	j, err := OpenJournalFS(path, chaos.OS(), func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatalf("mid-file corruption aborted recovery: %v", err)
	}
	defer j.Close()
	if _, ok := j.Lookup("before", "h"); !ok {
		t.Fatal("entry before the corrupt record lost")
	}
	if _, ok := j.Lookup("after", "h"); !ok {
		t.Fatal("entry after the corrupt record lost")
	}
	if j.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", j.Skipped())
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "line 2") {
		t.Fatalf("corrupt record not reported: %v", logged)
	}
}

// TestJournalSkipsTornMidRecord: a record torn *inside* the file — a
// half-written JSON line terminated by a later append's leading newline
// — is skipped without losing its neighbours.
func TestJournalSkipsTornMidRecord(t *testing.T) {
	path := tmpJournal(t)
	body := `{"schema":1,"id":"a","hash":"h","rendered":"A\n"}
{"schema":1,"id":"torn","hash":"h","rend
{"schema":1,"id":"b","hash":"h","rendered":"B\n"}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatalf("torn mid-record aborted recovery: %v", err)
	}
	defer j.Close()
	for _, id := range []string{"a", "b"} {
		if _, ok := j.Lookup(id, "h"); !ok {
			t.Fatalf("entry %q lost to a neighbouring torn record", id)
		}
	}
	if _, ok := j.Lookup("torn", "h"); ok {
		t.Fatal("torn record resurrected")
	}
	if j.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1", j.Skipped())
	}
}

// TestJournalTornAppendIsolated: when an append fails half-written, the
// journal marks itself dirty and the NEXT append leads with a newline,
// so the torn bytes stay on their own line and both the pre-tear and
// post-tear entries survive a reload.
func TestJournalTornAppendIsolated(t *testing.T) {
	path := tmpJournal(t)
	// Tear the 2nd write to the journal file (the 1st is entry "a").
	inj := chaos.NewInjector(1, mustChaos(t, "torn:ops=2-2,match=j.jsonl"))
	fsys := chaos.Flaky(chaos.OS(), inj)
	j, err := OpenJournalFS(path, fsys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalEntry{ID: "a", Hash: "h", Rendered: "A\n"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(JournalEntry{ID: "b", Hash: "h", Rendered: "B\n"}); err == nil {
		t.Fatal("torn append reported success")
	}
	// The failed entry is retried (or a different one lands) afterwards.
	if err := j.Append(JournalEntry{ID: "c", Hash: "h", Rendered: "C\n"}); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}
	j.Close()

	j2, err := OpenJournalFS(path, chaos.OS(), nil)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	defer j2.Close()
	for _, id := range []string{"a", "c"} {
		if _, ok := j2.Lookup(id, "h"); !ok {
			t.Fatalf("entry %q lost to the torn append", id)
		}
	}
	if _, ok := j2.Lookup("b", "h"); ok {
		t.Fatal("torn entry resurrected")
	}
	if j2.Skipped() != 1 {
		t.Fatalf("Skipped() = %d, want 1 (the torn half-record)", j2.Skipped())
	}
}

func mustChaos(t *testing.T, spec string) *chaos.Schedule {
	t.Helper()
	s, err := chaos.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigHashSensitivity(t *testing.T) {
	env := testEnv(t)
	base := ConfigHash(env, "ascii")
	if base != ConfigHash(env, "ascii") {
		t.Fatal("hash not deterministic")
	}
	seed := env
	seed.Seed++
	runs := env
	runs.Runs++
	faulty := env
	faulty.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.PacketLoss, Prob: 0.5, Node: -1, From: -1, To: -1}}}
	for name, h := range map[string]string{
		"format": ConfigHash(env, "csv"),
		"seed":   ConfigHash(seed, "ascii"),
		"runs":   ConfigHash(runs, "ascii"),
		"faults": ConfigHash(faulty, "ascii"),
	} {
		if h == base {
			t.Errorf("changing %s does not change the config hash", name)
		}
	}
}

// TestRunResumableSkipsJournaled: journaled experiments replay without
// executing, fresh ones run and are appended, and the merged stream
// stays in submission order.
func TestRunResumableSkipsJournaled(t *testing.T) {
	env := testEnv(t)
	j, err := OpenJournalFS(tmpJournal(t), chaos.OS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var aCalls, bCalls, cCalls int
	exps := []core.Experiment{fakeExp("a", &aCalls), fakeExp("b", &bCalls), fakeExp("c", &cCalls)}
	opts := Options{Workers: 1}

	// Seed the journal with a completed run of "b" under this config.
	hash := ConfigHash(env, "ascii")
	pre := Collect(Run(env, exps[1:2], opts))
	if err := j.Append(entryFor(pre[0], "henri", hash)); err != nil {
		t.Fatal(err)
	}
	bRendered := pre[0].Rendered

	res := Collect(RunResumable(env, exps, opts, j, "henri"))
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i, want := range []string{"a", "b", "c"} {
		if res[i].Exp.ID != want || res[i].Index != i {
			t.Fatalf("result %d is %s (index %d), want %s (submission order)", i, res[i].Exp.ID, res[i].Index, want)
		}
		if res[i].Err != nil {
			t.Fatalf("%s: %v", want, res[i].Err)
		}
	}
	if aCalls != 1 || cCalls != 1 {
		t.Fatalf("fresh experiments ran %d/%d times, want 1/1", aCalls, cCalls)
	}
	if bCalls != 1 {
		t.Fatalf("journaled experiment executed again (%d runs total, want the 1 seeding run)", bCalls)
	}
	if !res[1].Cached || res[1].Rendered != bRendered {
		t.Fatalf("cached result wrong: cached=%v rendered=%q", res[1].Cached, res[1].Rendered)
	}
	if res[0].Cached || res[2].Cached {
		t.Fatal("fresh results marked cached")
	}
	// The fresh completions were journaled: a second resume is all-cached.
	res2 := Collect(RunResumable(env, exps, opts, j, "henri"))
	for i, r := range res2 {
		if !r.Cached {
			t.Fatalf("result %d not cached on second resume", i)
		}
		if r.Rendered != res[i].Rendered {
			t.Fatalf("result %d rendering drifted across resume", i)
		}
	}
	if aCalls != 1 || bCalls != 1 || cCalls != 1 {
		t.Fatalf("second resume executed experiments: %d/%d/%d", aCalls, bCalls, cCalls)
	}
}

// TestRunResumableNeverJournalsFailures: a failing experiment yields an
// error result and stays out of the journal, so a resume retries it.
func TestRunResumableNeverJournalsFailures(t *testing.T) {
	env := testEnv(t)
	j, err := OpenJournalFS(tmpJournal(t), chaos.OS(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	boom := core.Experiment{ID: "boom", Title: "boom", Run: func(bench.Env) []*trace.Table {
		panic("kaboom")
	}}
	exps := []core.Experiment{fakeExp("ok", nil), boom}
	res := Collect(RunResumable(env, exps, Options{Workers: 1}, j, "henri"))
	if res[0].Err != nil || res[1].Err == nil {
		t.Fatalf("unexpected outcomes: %v / %v", res[0].Err, res[1].Err)
	}
	if j.Len() != 1 {
		t.Fatalf("journal holds %d entries, want 1 (failures must not be recorded)", j.Len())
	}
	if _, ok := j.Lookup("boom", ConfigHash(env, "ascii")); ok {
		t.Fatal("failed experiment journaled")
	}
}
