package bench

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary PointRecord encoding.
//
// The campaign cache moves PointRecords constantly — every Store, every
// Load, every wire round-trip of the remote cache protocol — and JSON
// is a poor fit for that traffic: it re-escapes the embedded payload,
// re-parses float64s, and costs an order of magnitude more CPU and
// bytes than the record's information content. The binary form below is
// the storage and wire format; JSON canonicalisation still happens
// exactly once per point, at the API/golden edge (ExecutePoint encodes
// the payload, RunPointsAs decodes it), so rendered outputs are
// untouched.
//
// Layout (all integers unsigned varints, floats IEEE-754 little-endian):
//
//	magic   "IPR1"               (4 bytes)
//	schema  uvarint              (must equal PointSchema on decode)
//	key     uvarint len + bytes
//	payload uvarint len + bytes  (the JSON-canonical payload, verbatim)
//	sim     float64              (SimSeconds)
//	worlds  uvarint
//	faults  10 × float64         (FaultTotals, field order below)
//
// The format is versioned twice: the magic pins the framing, and the
// schema field pins the measurement semantics. It is the only record
// encoding the cache and its wire protocol accept; a record of either
// stale version degrades to a recompute, never to corrupt output.

// recordMagic frames binary point records ("Interference Point Record,
// framing 1").
const recordMagic = "IPR1"

// faultFields is the number of float64 counters in FaultTotals; bump
// the magic when it changes.
const faultFields = 10

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
	for _, v := range r.Faults.fields() {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeBinary parses a binary record, replacing the receiver. It
// rejects framing it does not understand; schema validation is the
// caller's business (the cache treats a schema mismatch as a miss, not
// an error).
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
	var faults [faultFields]float64
	for i := range faults {
		faults[i] = math.Float64frombits(d.u64())
	}
	if d.err != nil {
		return fmt.Errorf("bench: truncated point record: %w", d.err)
	}
	if len(d.data) != 0 {
		return fmt.Errorf("bench: %d trailing bytes after point record", len(d.data))
	}
	*r = PointRecord{
		Schema:     int(schema),
		Key:        string(key),
		SimSeconds: sim,
		Worlds:     int(worlds),
	}
	if len(payload) > 0 {
		r.Payload = append([]byte(nil), payload...)
	}
	r.Faults.setFields(faults)
	return nil
}

// fields returns the counters in encoding order.
func (t FaultTotals) fields() [faultFields]float64 {
	return [faultFields]float64{
		t.SendRetries, t.SendTimeouts, t.RecvTimeouts, t.MsgsLost, t.MsgsCorrupted,
		t.PeerDeaths, t.TasksReexecuted, t.RollbackIters, t.Checkpoints, t.RecoverySecs,
	}
}

// setFields is the inverse of fields.
func (t *FaultTotals) setFields(f [faultFields]float64) {
	t.SendRetries, t.SendTimeouts, t.RecvTimeouts, t.MsgsLost, t.MsgsCorrupted = f[0], f[1], f[2], f[3], f[4]
	t.PeerDeaths, t.TasksReexecuted, t.RollbackIters, t.Checkpoints, t.RecoverySecs = f[5], f[6], f[7], f[8], f[9]
}

// recDecoder is a cursor over an encoded record that latches the first
// error, so the decode above reads straight-line.
type recDecoder struct {
	data []byte
	err  error
}

var errShortRecord = fmt.Errorf("unexpected end of data")

func (d *recDecoder) take(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.data) {
		if d.err == nil {
			d.err = errShortRecord
		}
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *recDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.err = errShortRecord
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *recDecoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
