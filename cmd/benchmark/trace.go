package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/runner"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op, the ID of the operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced loop began
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

// tracer keeps spans and counts in memory; they are written out and
// summarised once the traced loop ends.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	counts  map[string]float64
	records map[string]seenRecord
}

// seenRecord is the first record that crossed the cache boundary under
// a key, and how many times one did.
type seenRecord struct {
	rec bench.PointRecord
	n   int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, records: map[string]seenRecord{}}
}

// newID reserves a span ID, so an operation's children can name their
// parent before the operation's own span is recorded.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// record adds a span with a fresh ID under parent (0 for a root).
func (t *tracer) record(name string, parent, op int64, start, end time.Time, attr string) {
	t.recordID(t.newID(), name, parent, op, start, end, attr)
}

func (t *tracer) recordID(id int64, name string, parent, op int64, start, end time.Time, attr string) {
	s := span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attr: attr}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add accumulates a named count.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// sawRecord notes a record loaded from or stored to the cache. Encoding
// it here would put the encoder's time inside the traced operation, so
// recordBytes encodes each key's record once, after the loop: a key's
// record is the same in every operation of a run.
func (t *tracer) sawRecord(key string, rec bench.PointRecord) {
	t.mu.Lock()
	r := t.records[key]
	if r.n == 0 {
		r.rec = rec
	}
	r.n++
	t.records[key] = r
	t.mu.Unlock()
}

// recordBytes is the encoded size of every record sawRecord noted.
func (t *tracer) recordBytes() float64 {
	var b float64
	for _, r := range t.records {
		b += float64(r.n * len(r.rec.EncodeBinary()))
	}
	return b
}

func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore wraps a campaign's CacheStore and times every call. The
// runner loads a point, executes it on a miss and stores the record on
// the same goroutine, so the interval from a missed Load to the Store of
// the same key is bench.ExecutePoint.
type timedStore struct {
	inner runner.CacheStore
	tr    *tracer
	op    int64

	mu     sync.Mutex
	missed map[string]time.Time
}

func (t *tracer) store(inner runner.CacheStore, op int64) *timedStore {
	return &timedStore{inner: inner, tr: t, op: op, missed: map[string]time.Time{}}
}

func (s *timedStore) Load(key string) (rec bench.PointRecord, ok, mismatch, ioErr bool) {
	start := time.Now()
	rec, ok, mismatch, ioErr = s.inner.Load(key)
	end := time.Now()
	fam := family(key)
	s.tr.record("cache.load", s.op, s.op, start, end, fam)
	s.tr.add("cache.load_n", 1)
	if ok {
		s.tr.sawRecord(key, rec)
	} else {
		s.mu.Lock()
		s.missed[key] = end
		s.mu.Unlock()
	}
	return rec, ok, mismatch, ioErr
}

func (s *timedStore) Store(key string, rec bench.PointRecord) error {
	start := time.Now()
	s.mu.Lock()
	missed, found := s.missed[key]
	delete(s.missed, key)
	s.mu.Unlock()
	fam := family(key)
	if found {
		s.tr.record("bench.exec", s.op, s.op, missed, start, fam)
		s.tr.add("bench.worlds", float64(rec.Worlds))
	}
	err := s.inner.Store(key, rec)
	s.tr.record("cache.store", s.op, s.op, start, time.Now(), fam)
	s.tr.add("cache.store_n", 1)
	s.tr.sawRecord(key, rec)
	return err
}

// families are the sweep families, the first segment of a point key,
// and "other" for any family not listed.
var families = []string{"ablation", "collectives", "contention", "energy", "ext", "fabric",
	"faults", "fig1", "fig10", "fig3", "fig6", "fig7", "fig8", "fig9", "other"}

// family maps a full point key (config hash "/" point key) to its sweep
// family.
func family(fullKey string) string {
	_, key, _ := strings.Cut(fullKey, "/")
	fam, _, _ := strings.Cut(key, "/")
	for _, f := range families {
		if f == fam {
			return f
		}
	}
	return "other"
}

// modules are the repro/internal packages.
var modules = []string{"bench", "chaos", "core", "counters", "fault", "fluid", "freq",
	"kernels", "machine", "mpi", "net", "replica", "runner", "server", "sim", "stats",
	"taskrt", "topology", "trace", "tuning"}

// cpuBuckets are the groups the CPU profile is summed into: one per
// module; the Go runtime split into scheduling (channels, parking,
// waking, locks), memory management and the rest; encoding/json and
// net/http; the rest of the standard library; and everything else.
var cpuBuckets = append(append([]string(nil), modules...),
	"goruntime_sched", "goruntime_gc", "goruntime_other", "encoding_json", "net_http", "stdlib", "other")

// perLayer lists the per-layer metrics a traced run prints, in order.
func perLayer() []metricDecl {
	ds := []metricDecl{
		{"ops", "count"},
		{"trace.op_s", "s"},
		{"trace_overhead_frac", "frac"},
		{"runner.points", "count/op"},
		{"runner.executed", "count/op"},
		{"runner.memo_hits", "count/op"},
		{"runner.cache_hits", "count/op"},
		{"runner.flight_hits", "count/op"},
		{"runner.self_frac", "frac"},
		{"runner.unattributed_frac", "frac"},
		{"core.render_frac", "frac"},
		{"cache.load_n", "count/op"},
		{"cache.store_n", "count/op"},
		{"cache.record_bytes", "bytes/op"},
		{"cache.open_frac", "frac"},
		{"cache.load_frac", "frac"},
		{"cache.store_frac", "frac"},
		{"cache.flush_frac", "frac"},
		{"bench.worlds", "count/op"},
		{"bench.exec_frac", "frac"},
	}
	for _, f := range families {
		ds = append(ds, metricDecl{"bench.exec_frac." + f, "frac"})
	}
	ds = append(ds,
		metricDecl{"server.wall_frac", "frac"},
		metricDecl{"server.http_frac", "frac"},
		metricDecl{"server.journal_replays", "count/op"},
		metricDecl{"server.deduped", "count/op"},
		metricDecl{"server.shed", "count/op"},
		metricDecl{"cpu.total_s", "s"},
	)
	for _, b := range cpuBuckets {
		ds = append(ds, metricDecl{"cpu_frac." + b, "frac"})
	}
	return ds
}

// measureTraced is a traced run: one set-up, a third of d untraced, then
// two thirds traced with the CPU profiler on; maxOps > 0 caps each loop.
// Neither loop probes the host. It reports the per-layer metrics and
// writes the spans and the profile to dir.
func measureTraced(w workload, d time.Duration, maxOps, workers int, dir string) (*report, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := w.setUp(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := runLoop(w, time.Now().Add(d/3), maxOps, nil, false)
	profPath := filepath.Join(dir, "cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tr := newTracer()
	cpu0 := cpuTime()
	traced := runLoop(w, time.Now().Add(d-d/3), maxOps, tr, false)
	cpu := cpuTime() - cpu0
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	tr.add("cache.record_bytes", tr.recordBytes())
	if err := tr.writeSpans(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	buckets, err := profileBuckets(profPath)
	if err != nil {
		return nil, err
	}

	m := layerMetrics(tr, traced, workers)
	m["trace_overhead_frac"] = medianDur(traced)/medianDur(plain) - 1
	m["cpu.total_s"] = cpu.Seconds()
	var total float64
	for _, v := range buckets {
		total += v
	}
	for _, b := range cpuBuckets {
		if total > 0 {
			m["cpu_frac."+b] = buckets[b] / total
		}
	}
	return newReport(append(plain, traced...), perLayer(), m), nil
}

// layerMetrics summarises the traced loop's spans and counts. Counts are
// per operation. Shares of worker time divide by workers × the summed
// wall of the traced operations; runner.self_frac is the share of that
// wall during which no worker was inside a cache or execution span.
func layerMetrics(tr *tracer, ops []sample, workers int) map[string]float64 {
	m := map[string]float64{}
	for k, v := range tr.counts {
		m[k] = v / float64(len(ops))
	}
	var wall float64
	for _, s := range ops {
		wall += s.dur().Seconds()
	}
	m["ops"] = float64(len(ops))
	m["trace.op_s"] = wall
	workerS := float64(workers) * wall

	sums := map[string]float64{}
	children := map[int64][][2]time.Time{}
	roots := map[int64][2]time.Time{}
	for _, s := range tr.spans {
		iv := [2]time.Time{tr.t0.Add(time.Duration(s.Start)), tr.t0.Add(time.Duration(s.End))}
		d := time.Duration(s.End - s.Start).Seconds()
		sums[s.Name] += d
		switch {
		case s.Name == "campaign":
			roots[s.ID] = iv
		case s.Parent != 0:
			children[s.Op] = append(children[s.Op], iv)
		}
		if s.Name == "bench.exec" {
			sums["bench.exec."+s.Attr] += d
		}
	}
	if workerS > 0 {
		var attributed float64
		for _, name := range []string{"cache.open", "cache.load", "cache.store", "cache.flush", "bench.exec"} {
			m[name+"_frac"] = sums[name] / workerS
			attributed += sums[name]
		}
		for _, f := range families {
			m["bench.exec_frac."+f] = sums["bench.exec."+f] / workerS
		}
		m["core.render_frac"] = tr.counts["core.render_s"] / workerS
		if len(roots) > 0 {
			m["runner.unattributed_frac"] = 1 - attributed/workerS
		}
	}
	var rootWall, self float64
	for id, iv := range roots {
		d := iv[1].Sub(iv[0])
		rootWall += d.Seconds()
		self += (d - unionLen(children[id])).Seconds()
	}
	if rootWall > 0 {
		m["runner.self_frac"] = self / rootWall
	}
	if lat := tr.counts["server.latency_s"]; lat > 0 {
		m["server.wall_frac"] = tr.counts["server.wall_s"] / lat
		m["server.http_frac"] = 1 - m["server.wall_frac"]
	}
	return m
}

// unionLen is the length of the union of the intervals: the wall during
// which at least one of them was in progress.
func unionLen(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = x
		} else if x[1].After(cur[1]) {
			cur[1] = x[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// profileBuckets sums a CPU profile's flat time by bucket, as printed by
// the offline `go tool pprof -top`.
func profileBuckets(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", "-unit=ms", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(out)
}

// parseTop reads the rows of a `pprof -top -unit=ms` listing:
// flat flat% sum% cum cum% function.
func parseTop(out []byte) (map[string]float64, error) {
	b := map[string]float64{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" && f[1] == "flat%" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", line, err)
		}
		b[bucketOf(strings.Join(f[5:], " "))] += ms / 1e3
	}
	if !rows {
		return nil, fmt.Errorf("pprof printed no rows:\n%s", out)
	}
	return b, nil
}

// bucketOf maps a profiled function to its cpuBuckets entry.
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		for _, m := range modules {
			if m == mod {
				return m
			}
		}
		return "other"
	}
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return "goruntime_other" // assembly routines such as aeshashbody
	}
	pkg := fn[:slash+dot]
	switch {
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "sync" || pkg == "internal/sync":
		return "goruntime_sched"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, s := range gcFrames {
			if strings.Contains(fn, s) {
				return "goruntime_gc"
			}
		}
		for _, s := range schedFrames {
			if strings.Contains(fn, s) {
				return "goruntime_sched"
			}
		}
		return "goruntime_other"
	case pkg == "main" || strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "other"
	}
	return "stdlib"
}

// gcFrames and schedFrames are substrings of Go runtime functions that
// allocate or collect memory, and that hand goroutines over (channels,
// parking, waking, locks), respectively.
var (
	gcFrames = []string{"gc", "GC", "mark", "Mark", "sweep", "scan", "scaveng", "malloc",
		"mspan", "mheap", "mcache", "mcentral", "heapBits", "findObject", "greyobject",
		"wbBuf", "Barrier", "newobject", "makeslice", "growslice", "memclr", "nextFree",
		"typePointers", "newarray", "makemap"}
	schedFrames = []string{"chan", "park", "ready", "schedule", "findRunnable", "execute",
		"runq", "wakep", "startm", "stopm", "handoff", "futex", "notesleep", "notewakeup",
		"sema", "lock", "Lock", "selectgo", "gopark", "mcall", "gogo", "casgstatus",
		"procyield", "osyield", "usleep", "netpoll", "Gosched", "gosched", "spinning",
		"checkTimers", "goexit", "newproc", "systemstack", "Sudog", "pidle", "Spinning",
		"acquirem", "releasem", "guintptr"}
)
