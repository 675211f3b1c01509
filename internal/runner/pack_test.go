package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/stats"
)

func testRecord(key string) bench.PointRecord {
	return bench.PointRecord{
		Schema:     bench.PointSchema,
		Key:        key,
		Payload:    []byte(`{"v":42}`),
		SimSeconds: 1.25,
		Worlds:     3,
	}
}

func mustOpen(t *testing.T, dir string) *PointCache {
	t.Helper()
	c, err := OpenPointCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCacheWriteBehindReadYourWrites: a stored record is visible to
// Load before any flush, served from the pending buffer in the binary
// encoding.
func TestCacheWriteBehindReadYourWrites(t *testing.T) {
	c := mustOpen(t, t.TempDir())
	rec := testRecord("wb/k")
	if err := c.Store("wb/k", rec); err != nil {
		t.Fatal(err)
	}
	got, ok, mismatch, ioErr := c.Load("wb/k")
	if !ok || mismatch || ioErr {
		t.Fatalf("pending entry: ok=%v mismatch=%v ioErr=%v", ok, mismatch, ioErr)
	}
	if got.SimSeconds != rec.SimSeconds || !bytes.Equal(got.Payload, rec.Payload) {
		t.Fatalf("pending round-trip drift: %+v vs %+v", got, rec)
	}
	raw, found, err := c.lookup(keySum("wb/k"))
	if !found || err != nil {
		t.Fatalf("pending entry not found by address: found=%v err=%v", found, err)
	}
	var back bench.PointRecord
	if err := back.DecodeBinary(raw); err != nil || back.Key != "wb/k" {
		t.Fatalf("raw pending entry: key %q, err %v; want the binary record", back.Key, err)
	}
}

// TestCacheFlushReopenWarm: records flushed to a pack are served by a
// fresh cache on the same directory — the cross-process warm path.
func TestCacheFlushReopenWarm(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	keys := []string{"fl/a", "fl/b", "fl/c"}
	for _, k := range keys {
		if err := c.Store(k, testRecord(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir)
	for _, k := range keys {
		got, ok, mismatch, ioErr := reopened.Load(k)
		if !ok || mismatch || ioErr {
			t.Fatalf("%s after reopen: ok=%v mismatch=%v ioErr=%v", k, ok, mismatch, ioErr)
		}
		if got.Key != k {
			t.Fatalf("%s decoded key %q", k, got.Key)
		}
	}
	st := reopened.DiskStats()
	if st.Packs != 1 || st.PackedEntries != len(keys) || st.PendingEntries != 0 {
		t.Fatalf("disk stats after flush+reopen: %+v", st)
	}
}

// TestCachePackWithoutIdxIsScanned: deleting a segment's sidecar index
// only costs a pack scan on reopen — every record is still served.
func TestCachePackWithoutIdxIsScanned(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	if err := c.Store("noidx/k", testRecord("noidx/k")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "packs"))
	if err != nil {
		t.Fatal(err)
	}
	removed := false
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), ".idx") {
			if err := os.Remove(filepath.Join(dir, "packs", de.Name())); err != nil {
				t.Fatal(err)
			}
			removed = true
		}
	}
	if !removed {
		t.Fatal("flush wrote no sidecar index")
	}
	reopened := mustOpen(t, dir)
	if _, ok, _, _ := reopened.Load("noidx/k"); !ok {
		t.Fatal("record lost with its sidecar index")
	}
}

// TestCacheTornWrite: a temp-file write torn half-way by a dying disk
// never surfaces as a segment. A torn pack write fails the flush, leaves
// no file behind and keeps the batch pending (still served, landed by
// the next flush); a torn sidecar index costs only a pack scan when the
// cache is reopened.
func TestCacheTornWrite(t *testing.T) {
	keys := []string{"torn/a", "torn/b", "torn/c"}
	// packFiles lists the segment files and leftover temp files.
	packFiles := func(t *testing.T, dir string) (packs, idxs, tmps []string) {
		t.Helper()
		ents, err := os.ReadDir(filepath.Join(dir, "packs"))
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range ents {
			switch name := de.Name(); {
			case strings.HasPrefix(name, ".tmp-"):
				tmps = append(tmps, name)
			case strings.HasSuffix(name, ".pack"):
				packs = append(packs, name)
			case strings.HasSuffix(name, ".idx"):
				idxs = append(idxs, name)
			}
		}
		return packs, idxs, tmps
	}
	// storeAll buffers every key in a cache whose temp-file writes go
	// through the torn-write schedule.
	storeAll := func(t *testing.T, dir, spec string) *PointCache {
		t.Helper()
		inj := chaos.NewInjector(1, mustChaos(t, spec))
		c, err := OpenPointCacheFS(dir, chaos.Flaky(chaos.OS(), inj))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if err := c.Store(k, testRecord(k)); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	loadAll := func(t *testing.T, c *PointCache, when string) {
		t.Helper()
		for _, k := range keys {
			if got, ok, mismatch, ioErr := c.Load(k); !ok || mismatch || ioErr || got.Key != k {
				t.Fatalf("%s: %s: ok=%v mismatch=%v ioErr=%v key %q", when, k, ok, mismatch, ioErr, got.Key)
			}
		}
	}

	t.Run("pack", func(t *testing.T) {
		dir := t.TempDir()
		c := storeAll(t, dir, "torn:ops=1-1,match=.tmp-")
		if err := c.Flush(); err == nil {
			t.Fatal("flush with a torn pack write succeeded")
		}
		if packs, idxs, tmps := packFiles(t, dir); len(packs)+len(idxs)+len(tmps) != 0 {
			t.Fatalf("torn pack write left files behind: packs %v, idx %v, temp %v", packs, idxs, tmps)
		}
		if st := c.DiskStats(); st.PendingEntries != len(keys) {
			t.Fatalf("after the torn flush: %+v, want all %d records pending", st, len(keys))
		}
		loadAll(t, c, "pending after the torn flush")
		if err := c.Flush(); err != nil {
			t.Fatalf("retried flush: %v", err)
		}
		if packs, idxs, tmps := packFiles(t, dir); len(packs) != 1 || len(idxs) != 1 || len(tmps) != 0 {
			t.Fatalf("after the retried flush: packs %v, idx %v, temp %v", packs, idxs, tmps)
		}
		loadAll(t, mustOpen(t, dir), "reopened")
	})

	t.Run("idx", func(t *testing.T) {
		dir := t.TempDir()
		c := storeAll(t, dir, "torn:ops=2-2,match=.tmp-")
		if err := c.Flush(); err != nil {
			t.Fatalf("a torn sidecar index failed the flush: %v", err)
		}
		packs, idxs, tmps := packFiles(t, dir)
		if len(packs) != 1 || len(idxs)+len(tmps) != 0 {
			t.Fatalf("after a torn index write: packs %v, idx %v, temp %v", packs, idxs, tmps)
		}
		reopened := mustOpen(t, dir)
		// Only the scan fallback pages the pack in while indexing it.
		if _, scanned := reopened.packData[filepath.Join(dir, "packs", packs[0])]; !scanned {
			t.Fatal("reopened cache did not rebuild the pack's index by scanning it")
		}
		loadAll(t, reopened, "reopened")
	})
}

// TestCacheBatchFlushThreshold: the write-behind buffer flushes itself
// once it holds flushEvery entries, without an explicit Flush.
func TestCacheBatchFlushThreshold(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	c.flushEvery = 4
	for i, k := range []string{"th/a", "th/b", "th/c", "th/d"} {
		if err := c.Store(k, testRecord(k)); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(filepath.Join(dir, "packs"))
		if err != nil {
			t.Fatal(err)
		}
		packs := 0
		for _, de := range ents {
			if strings.HasSuffix(de.Name(), ".pack") {
				packs++
			}
		}
		if want := map[bool]int{false: 0, true: 1}[i == 3]; packs != want {
			t.Fatalf("after %d stores: %d packs on disk, want %d", i+1, packs, want)
		}
	}
	c.mu.Lock()
	pending := len(c.pending)
	c.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d entries still pending after threshold flush", pending)
	}
}

// TestPackRoundTrip exercises the pack/idx serialisation directly,
// including the scan fallback agreeing with the sidecar index.
func TestPackRoundTrip(t *testing.T) {
	entries := map[addr][]byte{
		keySum("a"): []byte("record-a"),
		keySum("b"): []byte("rb"),
		keySum("c"): {},
	}
	pack, refs := buildPack(entries)
	scanned, err := scanPackRefs(pack)
	if err != nil {
		t.Fatal(err)
	}
	if len(scanned) != len(refs) {
		t.Fatalf("scan found %d entries, idx has %d", len(scanned), len(refs))
	}
	for i := range refs {
		if refs[i] != scanned[i] {
			t.Fatalf("ref %d: idx %+v vs scan %+v", i, refs[i], scanned[i])
		}
	}
	parsed, err := parseIdx(encodeIdx(refs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if parsed[i] != refs[i] {
			t.Fatalf("idx round-trip drift at %d: %+v vs %+v", i, parsed[i], refs[i])
		}
	}
	back, err := parsePackEntries(pack)
	if err != nil {
		t.Fatal(err)
	}
	for sum, want := range entries {
		if !bytes.Equal(back[sum], want) {
			t.Fatalf("entry %x: %q, want %q", sum[:4], back[sum], want)
		}
	}
	if _, err := scanPackRefs([]byte("XXXX")); err == nil {
		t.Fatal("garbage accepted as a pack")
	}
	if _, err := scanPackRefs(pack[:len(pack)-1]); err == nil {
		t.Fatal("truncated pack accepted")
	}
	if _, err := parseIdx([]byte("IPX1")); err == nil {
		t.Fatal("truncated idx accepted")
	}
}

// TestPackBytesUnchanged: one batch flushed through the cache writes a
// pack and an index of exactly these bytes, so a change to the pack or
// index framing cannot slip in unnoticed. The records inside are
// PointSchema 3 records (nine fault counters); a schema change that
// moves their bytes re-pins both sums.
func TestPackBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	for i, k := range []string{"golden/a", "golden/b", "golden/c", "golden/d"} {
		rec := testRecord(k)
		rec.Payload = []byte(strings.Repeat(k, i))
		rec.Faults.MsgsLost = float64(i)
		if err := c.Store(k, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		".idx":  "ddf683fefb44a461e413c1b6b58ba35fbb5f860ad35181fc7022aa47add2fc33",
		".pack": "51d1cfed80275f401c7496677752b6ea1ee425620ab4983029f7bc49879aee93",
	}
	ents, err := os.ReadDir(filepath.Join(dir, "packs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		data, err := os.ReadFile(filepath.Join(dir, "packs", de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		ext := filepath.Ext(de.Name())
		if got := hex.EncodeToString(sum[:]); got != want[ext] {
			t.Errorf("%s: %d bytes hashing to %s, want %s", ext, len(data), got, want[ext])
		}
		delete(want, ext)
	}
	if len(want) != 0 {
		t.Errorf("flush wrote no %v", want)
	}
}

// hugeCount is a pack or index header claiming 2^40 entries.
func hugeCount(magic string) []byte { return binary.AppendUvarint([]byte(magic), 1<<40) }

// TestPackEntryCountBounded: a pack or index whose entry count could not
// fit in its bytes is refused before anything of that size is
// allocated. A 10-byte index claiming 2^40 entries used to take the
// process down with an out-of-memory fatal error on open; now the pack
// beside it is scanned instead, and a pack with such a count is skipped.
func TestPackEntryCountBounded(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir)
	if err := c.Store("bound/k", testRecord("bound/k")); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	idx, err := filepath.Glob(filepath.Join(dir, "packs", "*.idx"))
	if err != nil || len(idx) != 1 {
		t.Fatalf("flush wrote indexes %v (%v), want one", idx, err)
	}
	if err := os.WriteFile(idx[0], hugeCount(idxMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "packs", "seg-huge.pack"), hugeCount(packMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reopened := mustOpen(t, dir)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("opening the cache allocated %d bytes", grew)
	}
	if _, ok, _, _ := reopened.Load("bound/k"); !ok {
		t.Error("record lost behind an index with a corrupt count")
	}
	for name, parse := range map[string]func() ([]idxEntry, error){
		"idx":  func() ([]idxEntry, error) { return parseIdx(hugeCount(idxMagic)) },
		"pack": func() ([]idxEntry, error) { return scanPackRefs(hugeCount(packMagic)) },
	} {
		if _, err := parse(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s with 2^40 entries: err = %v", name, err)
		}
	}
}

// samplePack is a small pack and its index entries, the fuzz seeds.
func samplePack() ([]byte, []idxEntry) {
	return buildPack(map[addr][]byte{
		keySum("a"): testRecord("a").EncodeBinary(),
		keySum("b"): []byte("rb"),
		keySum("c"): {},
	})
}

// FuzzParseIdx: arbitrary bytes parsed as a pack index either fail or
// yield entries that re-encode to an index parsing back to them, and the
// entry slice never outgrows what the input could hold.
func FuzzParseIdx(f *testing.F) {
	_, refs := samplePack()
	idx := encodeIdx(refs)
	f.Add(idx)
	f.Add(idx[:len(idx)-1])
	f.Add(hugeCount(idxMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := parseIdx(data)
		if err != nil {
			return
		}
		if cap(refs) > len(data)/minIdxEntry {
			t.Fatalf("%d-byte index gave room for %d entries", len(data), cap(refs))
		}
		back, err := parseIdx(encodeIdx(refs))
		if err != nil || !slices.Equal(back, refs) {
			t.Fatalf("re-encoded index: %v, %+v; want %+v", err, back, refs)
		}
	})
}

// FuzzScanPackRefs: arbitrary bytes scanned as a pack either fail or
// yield extents inside the input, for no more entries than it could
// hold, and a pack rebuilt from those records scans to the same records.
func FuzzScanPackRefs(f *testing.F) {
	pack, _ := samplePack()
	f.Add(pack)
	f.Add(pack[:len(pack)-1])
	f.Add(hugeCount(packMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := scanPackRefs(data)
		if err != nil {
			return
		}
		if cap(refs) > len(data)/minPackEntry {
			t.Fatalf("%d-byte pack gave room for %d entries", len(data), cap(refs))
		}
		entries := map[addr][]byte{}
		for _, r := range refs {
			if r.off < 0 || r.n < 0 || r.off+r.n > len(data) {
				t.Fatalf("extent %d+%d outside %d bytes", r.off, r.n, len(data))
			}
			entries[r.sum] = data[r.off : r.off+r.n]
		}
		rebuilt, _ := buildPack(entries)
		back, err := parsePackEntries(rebuilt)
		if err != nil || len(back) != len(entries) {
			t.Fatalf("rebuilt pack: %v, %d entries; want %d", err, len(back), len(entries))
		}
		for s, rec := range entries {
			if !bytes.Equal(back[s], rec) {
				t.Fatalf("rebuilt pack: entry %x drifted", s[:4])
			}
		}
	})
}

// heldRecords is a PointRunner answering every batch with records held
// aside, to decode them as a sweep would.
type heldRecords []bench.PointRecord

func (h heldRecords) RunPoints(bench.Env, []bench.Point) []bench.PointRecord { return h }

// TestLoadedPayloadOutlivesFlush: a loaded record's payload aliases the
// cache's bytes (a pending buffer entry or a pack page-in). Replacing a
// pending entry, flushing, storing more and indexing a pack another
// cache wrote must leave every held payload decoding as it did.
func TestLoadedPayloadOutlivesFlush(t *testing.T) {
	env, err := core.Env("henri", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Summary{N: 3, Median: 1.5, P10: -2, P90: 1e9, Mean: 0.25, Min: -7, Max: 42}
	record := func(key string, v stats.Summary) bench.PointRecord {
		rec := bench.ExecutePoint(env, bench.Point{Key: key, Fn: func(bench.Env) any { return v }})
		if rec.Panic != nil {
			t.Fatal(rec.Panic)
		}
		return rec
	}
	dir := t.TempDir()
	c := mustOpen(t, dir)
	held := map[string]bench.PointRecord{}
	for _, k := range []string{"alias/flushed", "alias/replaced"} {
		if err := c.Store(k, record(k, want)); err != nil {
			t.Fatal(err)
		}
		rec, ok, _, _ := c.Load(k)
		if !ok {
			t.Fatalf("pending %s not served", k)
		}
		held["pending "+k] = rec
	}
	if err := c.Store("alias/replaced", record("alias/replaced", stats.Summary{N: 9})); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir)
	rec, ok, _, _ := reopened.Load("alias/flushed")
	if !ok {
		t.Fatal("packed record not served")
	}
	held["packed alias/flushed"] = rec
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("alias/more=%d", i)
		if err := c.Store(k, testRecord(k)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	writer := mustOpen(t, dir)
	if err := writer.Store("alias/new", testRecord("alias/new")); err != nil {
		t.Fatal(err)
	}
	if err := writer.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, pc := range []*PointCache{c, reopened} {
		pc.mu.Lock()
		pc.rescanLocked()
		pc.mu.Unlock()
		if _, ok, _, _ := pc.Load("alias/new"); !ok {
			t.Fatal("rescan missed the new pack")
		}
	}
	for from, rec := range held {
		pt := bench.Point{Key: rec.Key}
		got := bench.RunPointsAs[stats.Summary](bench.Env{Sched: heldRecords{rec}}, []bench.Point{pt})
		if got[0] != want {
			t.Errorf("%s now decodes as %+v, want %+v", from, got[0], want)
		}
	}
}
