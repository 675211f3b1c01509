package runner

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// Pack segments are the point cache's batched storage unit: one flush of
// the write-behind buffer becomes one immutable append-only file holding
// every record of the batch, written once via temp+rename. Compared to
// the legacy one-file-per-point layout this turns N
// create/write/rename syscall triples per campaign into one, and lets a
// warm campaign page a whole batch of records in with a single read.
//
// Pack layout (integers are unsigned varints):
//
//	magic   "IPK1"                       (4 bytes)
//	count   uvarint
//	entries count × { sum [32]byte | len uvarint | record bytes }
//
// Entries are sorted by content address. Each record is the binary
// PointRecord encoding (see bench.PointRecord.EncodeBinary), which
// carries its own framing and schema — a pack of stale records degrades
// to misses, never to corrupt output.
//
// Each pack gets a sidecar index so discovery never reads record bytes:
//
//	magic   "IPX1"                       (4 bytes)
//	count   uvarint
//	entries count × { sum [32]byte | off uvarint | len uvarint }
//
// off/len locate the record bytes inside the pack file. The index is an
// optimisation only: a pack with a missing or corrupt sidecar is
// re-indexed by scanning the pack itself.

const (
	packMagic = "IPK1"
	idxMagic  = "IPX1"
	// sumBytes is the raw length of a content address (sha256).
	sumBytes = 32
	// minIdxEntry and minPackEntry are the fewest bytes an index or pack
	// entry takes: the address and a one-byte varint or two.
	minIdxEntry  = sumBytes + 2
	minPackEntry = sumBytes + 1
)

// addr is a raw content address, the sha256 of a full point key. The
// cache keys its index and write-behind buffer by it.
type addr [sumBytes]byte

// packRef locates one record inside a flushed pack segment.
type packRef struct {
	path string
	off  int
	n    int
}

// idxEntry is one (content address, extent) pair of a pack's index.
type idxEntry struct {
	sum addr
	off int
	n   int
}

// buildPack serialises a batch of encoded records into a pack image and
// its index entries, sorted by address.
func buildPack(entries map[addr][]byte) (pack []byte, refs []idxEntry) {
	sums := make([]addr, 0, len(entries))
	size := len(packMagic) + binary.MaxVarintLen64
	for s, data := range entries {
		sums = append(sums, s)
		size += sumBytes + binary.MaxVarintLen64 + len(data)
	}
	slices.SortFunc(sums, func(a, b addr) int { return bytes.Compare(a[:], b[:]) })
	pack = make([]byte, 0, size)
	pack = append(pack, packMagic...)
	pack = binary.AppendUvarint(pack, uint64(len(sums)))
	refs = make([]idxEntry, 0, len(sums))
	for _, s := range sums {
		data := entries[s]
		pack = append(pack, s[:]...)
		pack = binary.AppendUvarint(pack, uint64(len(data)))
		refs = append(refs, idxEntry{sum: s, off: len(pack), n: len(data)})
		pack = append(pack, data...)
	}
	return pack, refs
}

// encodeIdx serialises index entries into the sidecar format.
func encodeIdx(refs []idxEntry) []byte {
	idx := make([]byte, 0, len(idxMagic)+binary.MaxVarintLen64+len(refs)*(sumBytes+2*binary.MaxVarintLen64))
	idx = append(idx, idxMagic...)
	idx = binary.AppendUvarint(idx, uint64(len(refs)))
	for _, e := range refs {
		idx = append(idx, e.sum[:]...)
		idx = binary.AppendUvarint(idx, uint64(e.off))
		idx = binary.AppendUvarint(idx, uint64(e.n))
	}
	return idx
}

// packCursor walks a serialised pack or index, latching the first error.
type packCursor struct {
	data []byte
	err  error
}

func (c *packCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *packCursor) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.data) {
		c.fail("runner: truncated pack data")
		return nil
	}
	b := c.data[:n]
	c.data = c.data[n:]
	return b
}

// sum reads a content address.
func (c *packCursor) sum() (s addr) {
	copy(s[:], c.take(sumBytes))
	return s
}

// count reads an entry count and refuses one whose entries, each at
// least each bytes, could not fit in the bytes left, so a corrupt count
// cannot make the caller allocate past the input.
func (c *packCursor) count(each int) int {
	n := c.uvarint()
	if n > uint64(len(c.data)/each) {
		c.fail("runner: pack entry count %d exceeds the %d bytes left", n, len(c.data))
		return 0
	}
	return int(n)
}

func (c *packCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data)
	if n <= 0 {
		c.fail("runner: truncated pack varint")
		return 0
	}
	c.data = c.data[n:]
	return v
}

// parseIdx decodes a sidecar index into entries.
func parseIdx(data []byte) ([]idxEntry, error) {
	c := &packCursor{data: data}
	if string(c.take(len(idxMagic))) != idxMagic {
		return nil, fmt.Errorf("runner: bad pack index magic")
	}
	count := c.count(minIdxEntry)
	refs := make([]idxEntry, 0, count)
	for i := 0; i < count && c.err == nil; i++ {
		sum := c.sum()
		off := c.uvarint()
		n := c.uvarint()
		refs = append(refs, idxEntry{sum: sum, off: int(off), n: int(n)})
	}
	if c.err != nil {
		return nil, c.err
	}
	return refs, nil
}

// scanPackRefs re-derives a pack's index entries from the pack bytes
// themselves — the recovery path when the sidecar is missing or corrupt.
func scanPackRefs(data []byte) ([]idxEntry, error) {
	total := len(data)
	c := &packCursor{data: data}
	if string(c.take(len(packMagic))) != packMagic {
		return nil, fmt.Errorf("runner: bad pack magic")
	}
	count := c.count(minPackEntry)
	refs := make([]idxEntry, 0, count)
	for i := 0; i < count && c.err == nil; i++ {
		sum := c.sum()
		n := int(c.uvarint())
		off := total - len(c.data)
		if c.take(n) == nil {
			break
		}
		refs = append(refs, idxEntry{sum: sum, off: off, n: n})
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(c.data) != 0 {
		return nil, fmt.Errorf("runner: %d trailing bytes after pack entries", len(c.data))
	}
	return refs, nil
}

// parsePackEntries scans a pack into its raw records keyed by address.
func parsePackEntries(data []byte) (map[addr][]byte, error) {
	refs, err := scanPackRefs(data)
	if err != nil {
		return nil, err
	}
	entries := make(map[addr][]byte, len(refs))
	for _, e := range refs {
		entries[e.sum] = append([]byte(nil), data[e.off:e.off+e.n]...)
	}
	return entries, nil
}
