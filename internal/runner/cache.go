package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/fluid"
)

// The point cache stores computed sweep points content-addressed by
// everything that determines their value: the solver version, the sweep
// drivers' measurement-logic version, the record schema, the full
// cluster spec, the campaign seed/run-count/fault-schedule, and the
// point's own parameter key. A -verify campaign or a repeated `make
// bench` therefore replays unchanged points byte-identically and only
// recomputes what a code or configuration change actually invalidated.

// CacheStats counts point-level cache traffic for one campaign. All
// fields are updated atomically; read them after the campaign drains.
type CacheStats struct {
	// Hits were served from the persistent cache; Misses were executed
	// (including recomputations after a mismatch). MemoHits were served
	// from the in-memory campaign memo: a second request for a point
	// another experiment already computed this campaign (e.g. fig4,
	// fig5 and tab1 sharing contention cells).
	Hits, Misses, MemoHits int64
	// FlightHits were served by joining another campaign's in-flight
	// computation of the same key (cross-client singleflight; zero
	// unless Options.Flight is set).
	FlightHits int64
	// Mismatches counts poisoned entries: a file whose stored key did
	// not match the requested one (hash collision or tampering). Such
	// entries are recomputed, never served.
	Mismatches int64
	// Errors counts failed cache reads/writes (best-effort: the point
	// is computed as if uncached).
	Errors int64
	// Skipped counts cache operations not attempted because the
	// campaign degraded to no-cache mode.
	Skipped int64
	// Degraded is 1 once the campaign has permanently switched to
	// no-cache mode after repeated cache failures (Add sums it, so a
	// server-wide total counts degraded campaigns).
	Degraded int64
}

// Points returns the total number of points requested.
func (s *CacheStats) Points() int64 {
	return atomic.LoadInt64(&s.Hits) + atomic.LoadInt64(&s.Misses) +
		atomic.LoadInt64(&s.MemoHits) + atomic.LoadInt64(&s.FlightHits)
}

// HitRate returns the fraction of requested points served without
// executing (persistent hits + memo hits + flight hits, that is every
// point but the misses), in [0,1]; 0 for an empty campaign.
func (s *CacheStats) HitRate() float64 {
	total := s.Points()
	if total == 0 {
		return 0
	}
	served := atomic.LoadInt64(&s.Hits) + atomic.LoadInt64(&s.MemoHits) + atomic.LoadInt64(&s.FlightHits)
	return float64(served) / float64(total)
}

// Add folds another campaign's counters into the receiver (atomically on
// both sides), so a long-lived service can aggregate per-campaign stats
// into a server-wide total.
func (s *CacheStats) Add(o *CacheStats) {
	atomic.AddInt64(&s.Hits, atomic.LoadInt64(&o.Hits))
	atomic.AddInt64(&s.Misses, atomic.LoadInt64(&o.Misses))
	atomic.AddInt64(&s.MemoHits, atomic.LoadInt64(&o.MemoHits))
	atomic.AddInt64(&s.FlightHits, atomic.LoadInt64(&o.FlightHits))
	atomic.AddInt64(&s.Mismatches, atomic.LoadInt64(&o.Mismatches))
	atomic.AddInt64(&s.Errors, atomic.LoadInt64(&o.Errors))
	atomic.AddInt64(&s.Skipped, atomic.LoadInt64(&o.Skipped))
	atomic.AddInt64(&s.Degraded, atomic.LoadInt64(&o.Degraded))
}

// CacheStore is the persistence layer of the point cache: the on-disk
// PointCache implements it, and tests substitute failing stores. Both
// methods must be safe for concurrent use.
type CacheStore interface {
	// Load retrieves the record stored under fullKey. ok is false on any
	// miss; mismatch marks a poisoned entry (stored key differs from the
	// requested one — never served); ioErr marks transport/read failures
	// distinct from ordinary absence.
	Load(fullKey string) (rec bench.PointRecord, ok, mismatch, ioErr bool)
	// Store persists the record under fullKey.
	Store(fullKey string, rec bench.PointRecord) error
}

// keySum returns the raw content address of a full point key. The key
// is hashed from a stack buffer, which holds every key the experiments
// make.
func keySum(fullKey string) addr {
	var buf [256]byte
	return sha256.Sum256(append(buf[:0], fullKey...))
}

// PointCache is a persistent, content-addressed store of computed sweep
// points, safe for concurrent use. Writes are batched: Store appends to
// an in-memory write-behind buffer (visible immediately to this
// process's Loads) and the buffer is flushed as one immutable pack
// segment — written atomically via temp + rename — once it reaches the
// entry or byte threshold, or on Flush/Close. Reads resolve pending →
// pack index, with a throttled rescan of the packs directory so
// concurrent processes sharing a cache directory pick up each other's
// flushed segments. Callers that want durability before process exit
// must Flush (cmd/interference and the cache daemon do).
type PointCache struct {
	packs string
	fs    chaos.FS

	mu           sync.Mutex
	pending      map[addr][]byte // binary records awaiting a flush
	pendingBytes int
	index        map[addr]packRef  // extent of each record in a pack segment
	packData     map[string][]byte // pack path → bytes (lazy page-in)
	scanned      map[string]bool   // pack paths already indexed
	lastScan     time.Time

	// flushEvery/flushBytes are the write-behind thresholds; tests
	// shrink them to force per-Store flushes.
	flushEvery int
	flushBytes int
}

const (
	defaultFlushEvery = 64
	defaultFlushBytes = 1 << 20
	// packRescanEvery throttles packs-directory rescans on misses, so a
	// cold campaign pounding an empty shared cache doesn't pay a
	// directory listing per point.
	packRescanEvery = 100 * time.Millisecond
)

// OpenPointCache opens (creating if needed) a cache rooted at dir.
func OpenPointCache(dir string) (*PointCache, error) {
	return OpenPointCacheFS(dir, chaos.OS())
}

// OpenPointCacheFS opens a cache whose I/O goes through fsys — the
// production filesystem, or a chaos.Flaky wrapper in fault drills.
func OpenPointCacheFS(dir string, fsys chaos.FS) (*PointCache, error) {
	packs := filepath.Join(dir, "packs")
	if err := fsys.MkdirAll(packs, 0o755); err != nil {
		return nil, fmt.Errorf("runner: creating point cache: %w", err)
	}
	c := &PointCache{
		packs:      packs,
		fs:         fsys,
		pending:    make(map[addr][]byte),
		index:      make(map[addr]packRef),
		packData:   make(map[string][]byte),
		scanned:    make(map[string]bool),
		flushEvery: defaultFlushEvery,
		flushBytes: defaultFlushBytes,
	}
	c.mu.Lock()
	c.rescanLocked() // index segments left by earlier processes
	c.mu.Unlock()
	return c, nil
}

// lookup resolves a content address to its raw stored bytes: pending
// buffer, then pack index, then (on a miss) a throttled rescan of the
// packs directory for segments flushed by other processes.
func (c *PointCache) lookup(sum addr) (data []byte, found bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if data, ok := c.pending[sum]; ok {
		return data, true, nil
	}
	ref, ok := c.index[sum]
	if !ok && time.Since(c.lastScan) >= packRescanEvery {
		c.rescanLocked()
		ref, ok = c.index[sum]
	}
	if !ok {
		return nil, false, nil
	}
	data, err = c.packSliceLocked(ref)
	return data, err == nil, err
}

// packSliceLocked returns the record bytes a ref points at, paging the
// pack file into memory on first touch.
func (c *PointCache) packSliceLocked(ref packRef) ([]byte, error) {
	data, ok := c.packData[ref.path]
	if !ok {
		var err error
		data, err = c.fs.ReadFile(ref.path)
		if err != nil {
			return nil, err
		}
		c.packData[ref.path] = data
	}
	if ref.off < 0 || ref.n < 0 || ref.off+ref.n > len(data) {
		return nil, fmt.Errorf("runner: pack ref %s@%d+%d out of range (%d bytes)",
			filepath.Base(ref.path), ref.off, ref.n, len(data))
	}
	return data[ref.off : ref.off+ref.n], nil
}

// rescanLocked indexes pack segments not yet seen. Best-effort: a
// segment whose read fails is retried on the next rescan; a segment
// that parses as garbage is skipped for good.
func (c *PointCache) rescanLocked() {
	c.lastScan = time.Now()
	ents, err := c.fs.ReadDir(c.packs)
	if err != nil {
		return
	}
	type segment struct {
		path string
		refs []idxEntry
	}
	var segs []segment
	n := 0
	for _, de := range ents {
		name := de.Name()
		if !strings.HasSuffix(name, ".pack") {
			continue
		}
		path := filepath.Join(c.packs, name)
		if c.scanned[path] {
			continue
		}
		if refs := c.scanPackLocked(path); len(refs) > 0 {
			segs = append(segs, segment{path, refs})
			n += len(refs)
		}
	}
	if len(c.index) == 0 && n > 0 {
		// The first scan sizes the index for every segment it found.
		c.index = make(map[addr]packRef, n)
	}
	for _, sg := range segs {
		for _, e := range sg.refs {
			if _, dup := c.index[e.sum]; !dup {
				c.index[e.sum] = packRef{path: sg.path, off: e.off, n: e.n}
			}
		}
	}
}

// scanPackLocked reads the entries of one segment, preferring its
// sidecar index and falling back to scanning the pack bytes, and marks
// it scanned unless the read failed.
func (c *PointCache) scanPackLocked(path string) []idxEntry {
	var refs []idxEntry
	if data, err := c.fs.ReadFile(strings.TrimSuffix(path, ".pack") + ".idx"); err == nil {
		refs, _ = parseIdx(data)
	}
	if refs == nil {
		data, err := c.fs.ReadFile(path)
		if err != nil {
			return nil // transient: retry on the next rescan
		}
		refs, err = scanPackRefs(data)
		if err != nil {
			c.scanned[path] = true // not a pack: never rescan it
			return nil
		}
		c.packData[path] = data
	}
	c.scanned[path] = true
	return refs
}

// Load retrieves the record stored under fullKey. ok is false on any
// miss: absent entry, unreadable bytes, schema drift, or a stored key
// that does not match the requested one (mismatch=true; a poisoned
// entry is never served). ioErr marks read failures distinct from
// ordinary absence.
func (c *PointCache) Load(fullKey string) (rec bench.PointRecord, ok, mismatch, ioErr bool) {
	data, found, err := c.lookup(keySum(fullKey))
	if err != nil {
		return bench.PointRecord{}, false, false, true
	}
	if !found {
		return bench.PointRecord{}, false, false, false
	}
	return decodeStored(data, fullKey)
}

// decodeStored parses a raw binary record and applies the cache's trust
// checks.
func decodeStored(data []byte, fullKey string) (rec bench.PointRecord, ok, mismatch, ioErr bool) {
	if err := rec.DecodeBinary(data); err != nil {
		return bench.PointRecord{}, false, false, true
	}
	if rec.Schema != bench.PointSchema {
		return bench.PointRecord{}, false, false, false
	}
	if rec.Key != fullKey {
		return bench.PointRecord{}, false, true, false
	}
	return rec, true, false, false
}

// Store records the point under fullKey in the write-behind buffer; the
// buffer is flushed as a pack segment when it reaches the entry or byte
// threshold. A failed flush is reported to the Store that triggered it,
// but the batch is *retained*: the records stay readable in the pending
// buffer and the next threshold crossing (or explicit Flush) retries,
// so a transient disk fault costs one error per attempt, never a
// silently lost batch. Only process exit loses an unflushable buffer —
// and that surfaces on Close.
func (c *PointCache) Store(fullKey string, rec bench.PointRecord) error {
	rec.Key = fullKey
	data := rec.EncodeBinary()
	sum := keySum(fullKey)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, dup := c.pending[sum]; dup {
		c.pendingBytes -= len(old)
	}
	c.pending[sum] = data
	c.pendingBytes += len(data)
	if len(c.pending) >= c.flushEvery || c.pendingBytes >= c.flushBytes {
		return c.flushLocked()
	}
	return nil
}

// Flush writes the pending buffer out as a pack segment.
func (c *PointCache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// Close flushes the pending buffer; the cache remains usable after.
func (c *PointCache) Close() error { return c.Flush() }

func (c *PointCache) flushLocked() error {
	if len(c.pending) == 0 {
		return nil
	}
	if err := c.writePackLocked(c.pending); err != nil {
		return err
	}
	c.pending = make(map[addr][]byte)
	c.pendingBytes = 0
	return nil
}

// writePackLocked persists one batch as an immutable segment pair
// (seg-*.pack + seg-*.idx) and indexes it. The pack write is atomic
// (temp + rename); the sidecar index is best-effort — a pack without
// one is re-indexed by scanning.
func (c *PointCache) writePackLocked(batch map[addr][]byte) error {
	pack, refs := buildPack(batch)
	tmp, err := c.fs.CreateTemp(c.packs, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(pack); err != nil {
		tmp.Close()
		c.fs.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(tmp.Name())
		return err
	}
	seg := "seg-" + strings.TrimPrefix(filepath.Base(tmp.Name()), ".tmp-")
	path := filepath.Join(c.packs, seg+".pack")
	if err := c.fs.Rename(tmp.Name(), path); err != nil {
		c.fs.Remove(tmp.Name())
		return err
	}
	for _, e := range refs {
		c.index[e.sum] = packRef{path: path, off: e.off, n: e.n}
	}
	c.packData[path] = pack
	c.scanned[path] = true
	c.writeIdx(seg, refs)
	return nil
}

// writeIdx writes a segment's sidecar index; failures are swallowed
// (the pack is self-describing).
func (c *PointCache) writeIdx(seg string, refs []idxEntry) {
	tmp, err := c.fs.CreateTemp(c.packs, ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(encodeIdx(refs)); err != nil {
		tmp.Close()
		c.fs.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		c.fs.Remove(tmp.Name())
		return
	}
	if err := c.fs.Rename(tmp.Name(), filepath.Join(c.packs, seg+".idx")); err != nil {
		c.fs.Remove(tmp.Name())
	}
}

// DiskStats describes the cache's on-disk occupancy for -cache-stats.
type DiskStats struct {
	// Packs / PackedEntries count indexed segments and the records they
	// hold; PendingEntries are buffered writes not yet flushed.
	Packs, PackedEntries, PendingEntries int
}

// DiskStats rescans the packs directory and reports its occupancy.
func (c *PointCache) DiskStats() DiskStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rescanLocked()
	packs := make(map[string]bool)
	for _, ref := range c.index {
		packs[ref.path] = true
	}
	return DiskStats{Packs: len(packs), PackedEntries: len(c.index), PendingEntries: len(c.pending)}
}

// pointBaseKey fingerprints everything outside the point's own key that
// determines its value: the solver and sweep-logic versions, the record
// schema, the cluster spec, seed, run count and fault schedule.
// The output format is not part of it (point payloads are structured
// data, rendered later).
func pointBaseKey(env bench.Env) string {
	spec, err := json.Marshal(env.Spec)
	if err != nil {
		spec = []byte(err.Error())
	}
	faults := ""
	if env.Faults != nil {
		faults = env.Faults.String()
	}
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d|sweep=%d|fluid=%d|%s|seed=%d|runs=%d|faults=%s",
		bench.PointSchema, bench.SweepVersion, fluid.Version, spec, env.Seed, env.Runs, faults)
	return hex.EncodeToString(h.Sum(nil))
}

// pointScheduler implements bench.PointRunner for a campaign: points
// from every experiment run on the shared pool, deduplicated through an
// in-memory memo (two experiments requesting the same cell compute it
// once) and optionally replayed from / stored to a persistent cache.
type pointScheduler struct {
	pool   *pointPool
	cache  CacheStore                 // nil disables the persistent layer
	flight *Flight[bench.PointRecord] // nil disables cross-campaign singleflight
	stats  *CacheStats                // nil disables counting
	ctx    context.Context            // nil means never cancelled
	base   string

	// degradeAfter is the campaign's cache-error budget: errCount is
	// cumulative (a success never resets it), and once it reaches the
	// budget the campaign flips to no-cache mode for good
	// (degraded=1, stats.Degraded=1) and every later cache op is
	// skipped instead of attempted. Keeps a campaign from paying a
	// timeout or EIO per point when the cache layer is sick.
	degradeAfter int64
	errCount     atomic.Int64
	degraded     atomic.Bool

	memo Flight[bench.PointRecord] // keeps every record without a panic
}

// DefaultDegradeAfter is the cache-error budget before a campaign
// degrades to no-cache mode, when Options.DegradeAfter is unset.
const DefaultDegradeAfter = 8

func newPointScheduler(pool *pointPool, cache CacheStore, flight *Flight[bench.PointRecord], stats *CacheStats, env bench.Env) *pointScheduler {
	if stats == nil {
		stats = &CacheStats{}
	}
	return &pointScheduler{
		pool:         pool,
		cache:        cache,
		flight:       flight,
		stats:        stats,
		base:         pointBaseKey(env),
		degradeAfter: DefaultDegradeAfter,
	}
}

// noteCacheError counts a cache failure toward the degradation budget
// and flips the campaign to no-cache mode when it is spent.
func (s *pointScheduler) noteCacheError() {
	if s.errCount.Add(1) >= s.degradeAfter && s.degraded.CompareAndSwap(false, true) {
		atomic.StoreInt64(&s.stats.Degraded, 1)
	}
}

// RunPoints schedules the batch on the pool and participates until it
// completes, then returns records index-aligned with pts.
func (s *pointScheduler) RunPoints(env bench.Env, pts []bench.Point) []bench.PointRecord {
	recs := make([]bench.PointRecord, len(pts))
	if len(pts) == 0 {
		return recs
	}
	if s.pool == nil {
		for i, p := range pts {
			recs[i] = s.point(env, p)
		}
		return recs
	}
	b := s.pool.newBatch(len(pts))
	s.pool.enqueue(func(i int) {
		// done must run even if the point panics past ExecutePoint's
		// recover (worker restart path) — a hung batch would wedge
		// every campaign sharing the pool.
		defer b.done()
		recs[i] = s.point(env, pts[i])
	}, len(pts))
	s.pool.runUntil(b)
	return recs
}

// point resolves one point: campaign memo, then persistent cache, then
// execution. Exactly one goroutine computes each distinct key; the
// others wait for its record. A cancelled campaign fails the point
// before joining anything, so it never waits on another's leader.
func (s *pointScheduler) point(env bench.Env, p bench.Point) bench.PointRecord {
	fullKey := s.base + "/" + p.Key
	if s.ctx != nil && s.ctx.Err() != nil {
		return bench.PointRecord{
			Schema: bench.PointSchema,
			Key:    fullKey,
			Panic:  fmt.Errorf("runner: campaign cancelled: %w", s.ctx.Err()),
		}
	}
	// A panicked point must not satisfy later requests for the key:
	// each owner re-executes and observes the panic itself.
	rec, joined := s.memo.Do(fullKey, func() (bench.PointRecord, bool) {
		rec := s.resolve(env, p, fullKey)
		return rec, rec.Panic == nil
	})
	if joined {
		atomic.AddInt64(&s.stats.MemoHits, 1)
	}
	return rec
}

// resolve loads the point from the persistent cache or executes it
// (storing the fresh record on success). With a point flight installed,
// concurrent campaigns resolving the same key elect one leader: it runs
// the cache-then-execute path once and the others adopt its record.
// The flight keeps nothing: completed points are the persistent
// cache's job, the flight only covers the window before it has them.
func (s *pointScheduler) resolve(env bench.Env, p bench.Point, fullKey string) bench.PointRecord {
	if s.flight == nil {
		return s.resolveLocal(env, p, fullKey)
	}
	rec, joined := s.flight.Do(fullKey, func() (bench.PointRecord, bool) {
		return s.resolveLocal(env, p, fullKey), false
	})
	if joined {
		atomic.AddInt64(&s.stats.FlightHits, 1)
	}
	return rec
}

func (s *pointScheduler) resolveLocal(env bench.Env, p bench.Point, fullKey string) bench.PointRecord {
	useCache := s.cache != nil && !s.degraded.Load()
	if s.cache != nil && !useCache {
		atomic.AddInt64(&s.stats.Skipped, 1)
	}
	if useCache {
		rec, ok, mismatch, ioErr := s.cache.Load(fullKey)
		if ok {
			atomic.AddInt64(&s.stats.Hits, 1)
			rec.Cached = true
			return rec
		}
		if mismatch {
			atomic.AddInt64(&s.stats.Mismatches, 1)
		}
		if ioErr {
			atomic.AddInt64(&s.stats.Errors, 1)
			s.noteCacheError()
		}
	}
	atomic.AddInt64(&s.stats.Misses, 1)
	rec := bench.ExecutePoint(env, p)
	if useCache && rec.Panic == nil && !s.degraded.Load() {
		if err := s.cache.Store(fullKey, rec); err != nil {
			atomic.AddInt64(&s.stats.Errors, 1)
			s.noteCacheError()
		}
	}
	return rec
}
