package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
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
// Load and LoadSum before any flush, served from the pending buffer in
// the binary encoding.
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
	raw, err := c.LoadSum(CacheKeySum("wb/k"))
	if err != nil {
		t.Fatal(err)
	}
	var back bench.PointRecord
	if err := back.DecodeBinary(raw); err != nil || back.Key != "wb/k" {
		t.Fatalf("LoadSum of a pending entry: key %q, err %v; want the binary record", back.Key, err)
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
	entries := map[string][]byte{
		CacheKeySum("a"): []byte("record-a"),
		CacheKeySum("b"): []byte("rb"),
		CacheKeySum("c"): {},
	}
	pack, refs, err := buildPack(entries)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("entry %s: %q, want %q", sum[:8], back[sum], want)
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
