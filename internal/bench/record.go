package bench

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/counters"
)

// Binary PointRecord encoding.
//
// The campaign cache moves PointRecords constantly — every Store and
// every Load — and JSON is a poor fit for that traffic: it re-escapes
// the embedded payload, re-parses float64s, and costs an order of
// magnitude more CPU and bytes than the record's information content.
// The binary form below is the storage format. The payload inside it
// is the point's result as the payload codec (codec.go) encoded it:
// ExecutePoint encodes it once, RunPointsAs decodes it, and the record
// carries the bytes through untouched.
//
// Layout (all integers unsigned varints, floats IEEE-754 little-endian):
//
//	magic   "IPR1"               (4 bytes)
//	schema  uvarint              (must equal PointSchema on decode)
//	key     uvarint len + bytes
//	payload uvarint len + bytes  (the codec-encoded payload, verbatim)
//	sim     float64              (SimSeconds)
//	worlds  uvarint
//	faults  9 × float64          (counters.Faults, field order below)
//
// The format is versioned twice: the magic pins the framing, and the
// schema field pins the payload codec and the measurement semantics.
// It is the only record encoding the cache and its wire protocol
// accept; a record of either stale version degrades to a recompute,
// never to corrupt output.

// recordMagic frames binary point records ("Interference Point Record,
// framing 1").
const recordMagic = "IPR1"

// faultFields is the number of float64 counters in counters.Faults.
// Bump PointSchema when it changes, not the magic: the schema is part of
// every cache key, so the old records simply miss, while a magic bump
// keeps the old keys, decodes each stale record as an I/O error, and
// those errors spend the campaign's cache-error budget
// (runner.DefaultDegradeAfter) until it degrades to no-cache mode.
const faultFields = 9

// EncodeBinary renders the record in the binary cache format. The Panic
// field is not encoded (panics are never cached).
func (r PointRecord) EncodeBinary() []byte {
	n := len(recordMagic) +
		binary.MaxVarintLen64 + // schema
		binary.MaxVarintLen64 + len(r.Key) +
		binary.MaxVarintLen64 + len(r.Payload) +
		8 + // SimSeconds
		binary.MaxVarintLen64 + // Worlds
		8*faultFields
	buf := make([]byte, 0, n)
	buf = append(buf, recordMagic...)
	buf = binary.AppendUvarint(buf, uint64(r.Schema))
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	buf = append(buf, r.Payload...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.SimSeconds))
	buf = binary.AppendUvarint(buf, uint64(r.Worlds))
	for _, v := range faultFieldsOf(&r.Faults) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(*v))
	}
	return buf
}

// DecodeBinary parses a binary record, replacing the receiver. It
// rejects framing it does not understand; schema validation is the
// caller's business (the cache treats a schema mismatch as a miss, not
// an error). The decoded Key and Payload alias data, which the caller
// must therefore never write again.
func (r *PointRecord) DecodeBinary(data []byte) error {
	d := recDecoder{data: data}
	if string(d.take(len(recordMagic))) != recordMagic {
		return fmt.Errorf("bench: bad point record magic")
	}
	schema := d.uvarint()
	key := d.take(int(d.uvarint()))
	payload := d.take(int(d.uvarint()))
	sim := math.Float64frombits(d.u64())
	worlds := d.uvarint()
	var faults counters.Faults
	for _, v := range faultFieldsOf(&faults) {
		*v = math.Float64frombits(d.u64())
	}
	if d.err != nil {
		return fmt.Errorf("bench: truncated point record: %w", d.err)
	}
	if d.left() != 0 {
		return fmt.Errorf("bench: %d trailing bytes after point record", d.left())
	}
	*r = PointRecord{
		Schema:     int(schema),
		Key:        unsafe.String(unsafe.SliceData(key), len(key)),
		SimSeconds: sim,
		Worlds:     int(worlds),
		Faults:     faults,
	}
	if len(payload) > 0 {
		// Aliased, not copied (see the Payload field); the full slice
		// expression keeps an append from writing into data.
		r.Payload = payload[:len(payload):len(payload)]
	}
	return nil
}

// faultFieldsOf returns pointers to f's counters in encoding order.
func faultFieldsOf(f *counters.Faults) [faultFields]*float64 {
	return [faultFields]*float64{
		&f.SendRetries, &f.SendTimeouts, &f.MsgsLost, &f.MsgsCorrupted,
		&f.PeerDeaths, &f.TasksReexecuted, &f.RollbackIters, &f.Checkpoints, &f.RecoverySecs,
	}
}

// recDecoder is a cursor over an encoded record or payload that latches
// the first error, so the decoders read straight-line. It advances an
// offset rather than re-slicing data, so a read stores no pointer.
type recDecoder struct {
	data []byte
	pos  int
	err  error
}

// left returns the number of bytes not read yet.
func (d *recDecoder) left() int { return len(d.data) - d.pos }

var errShortRecord = errors.New("unexpected end of data")

func (d *recDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *recDecoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > d.left() {
		d.fail(errShortRecord)
		return nil
	}
	b := d.data[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *recDecoder) u8() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *recDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail(errShortRecord)
		return 0
	}
	d.pos += n
	return v
}

func (d *recDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.fail(errShortRecord)
		return 0
	}
	d.pos += n
	return v
}

// length reads a nil-or-length prefix (0 for nil, else 1 + n) and
// returns n, or -1 for nil. The n elements, each encoded in at least
// each ≥ 1 bytes, must fit in the input left, so a corrupt prefix
// cannot make the caller allocate past it.
func (d *recDecoder) length(each int) int {
	n := d.uvarint()
	if n == 0 {
		return -1
	}
	if n-1 > uint64(d.left()/each) {
		d.fail(errShortRecord)
		return -1
	}
	return int(n - 1)
}

func (d *recDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
