package bench

import (
	"bytes"
	"testing"

	"repro/internal/counters"
)

// TestRecordBinaryRoundTrip: the binary codec must reproduce every
// field, including all fault counters and an empty payload.
func TestRecordBinaryRoundTrip(t *testing.T) {
	full := PointRecord{
		Schema:     PointSchema,
		Key:        "base/exp/cell=3",
		Payload:    []byte(`{"lat_us":1.5,"bw":[1,2,3]}`),
		SimSeconds: 12.0625,
		Worlds:     7,
		Faults: counters.Faults{
			SendRetries: 1, SendTimeouts: 2, MsgsLost: 3, MsgsCorrupted: 4,
			PeerDeaths: 5, TasksReexecuted: 6, RollbackIters: 7,
			Checkpoints: 8, RecoverySecs: 9.5,
		},
	}
	empty := PointRecord{Schema: PointSchema, Key: "k"}
	for _, rec := range []PointRecord{full, empty} {
		data := rec.EncodeBinary()
		var got PointRecord
		if err := got.DecodeBinary(data); err != nil {
			t.Fatal(err)
		}
		if got.Schema != rec.Schema || got.Key != rec.Key ||
			got.SimSeconds != rec.SimSeconds || got.Worlds != rec.Worlds ||
			got.Faults != rec.Faults || !bytes.Equal(got.Payload, rec.Payload) {
			t.Fatalf("round-trip drift:\n got %+v\nwant %+v", got, rec)
		}
	}
}

// TestRecordBinaryRejectsDamage: bad magic, truncation at any point,
// and trailing bytes are all decode errors — never silent corruption.
func TestRecordBinaryRejectsDamage(t *testing.T) {
	data := PointRecord{
		Schema: PointSchema, Key: "k", Payload: []byte(`{}`), Worlds: 1,
	}.EncodeBinary()
	var rec PointRecord
	if err := rec.DecodeBinary([]byte("JSON" + string(data[4:]))); err == nil {
		t.Error("bad magic accepted")
	}
	for cut := 1; cut < len(data); cut += 7 {
		if err := rec.DecodeBinary(data[:len(data)-cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", len(data)-cut)
		}
	}
	if err := rec.DecodeBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if err := rec.DecodeBinary([]byte(`{"schema":1}`)); err == nil {
		t.Error("JSON record accepted")
	}
}
