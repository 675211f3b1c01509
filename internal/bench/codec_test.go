package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/tuning"
)

// payloadTypes holds a zero value of every type a sweep decodes its
// points as, keyed by the type argument as the sweep spells it.
var payloadTypes = map[string]any{
	"ContentionPoint":       ContentionPoint{},
	"SizePoint":             SizePoint{},
	"IntensityPoint":        IntensityPoint{},
	"FrequencyPoint":        FrequencyPoint{},
	"Fig2Result":            Fig2Result{},
	"Fig3Result":            Fig3Result{},
	"Fig8Point":             Fig8Point{},
	"Fig9Point":             Fig9Point{},
	"Fig10Point":            Fig10Point{},
	"RuntimeOverheadResult": RuntimeOverheadResult{},
	"FabricCell":            FabricCell{},
	"FabricPingCell":        FabricPingCell{},
	"ablationCell":          ablationCell{},
	"collCell":              collCell{},
	"energyCell":            energyCell{},
	"faultsPPCell":          faultsPPCell{},
	"overlapCell":           overlapCell{},
	"crashPingPongRun":      crashPingPongRun{},
	"crashCGRun":            crashCGRun{},
	"stats.Summary":         stats.Summary{},
	"tuning.Point":          tuning.Point{},
	"mpi.OverlapResult":     mpi.OverlapResult{},
}

// TestPayloadTypesCoverEverySweep: the table above names every type
// argument of RunPointsAs, runWithSolos and decodePoints in the
// package's sources, so a new sweep result type cannot skip the codec
// contract tests.
func TestPayloadTypesCoverEverySweep(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	used := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ix, ok := n.(*ast.IndexExpr)
			if !ok {
				return true
			}
			if fn, ok := ix.X.(*ast.Ident); ok && slices.Contains([]string{"RunPointsAs", "runWithSolos", "decodePoints"}, fn.Name) {
				if arg := types.ExprString(ix.Index); arg != "T" { // T: the generic pass-through
					used[arg] = true
				}
			}
			return true
		})
	}
	if len(used) == 0 {
		t.Fatal("found no sweep instantiations")
	}
	for arg := range used {
		if _, ok := payloadTypes[arg]; !ok {
			t.Errorf("sweep result type %s is missing from payloadTypes", arg)
		}
	}
	for arg := range payloadTypes {
		if !used[arg] {
			t.Errorf("payloadTypes lists %s, which no sweep decodes", arg)
		}
	}
}

// fill sets every settable leaf under v to a distinct non-zero value,
// with two elements in each slice and map.
func fill(v reflect.Value, n *int) {
	*n++
	k := *n
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(k%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(uint64(k%200 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(k) / 3)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", k))
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(p.Elem(), n)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fill(s.Index(i), n)
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), n)
		}
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for i := 0; i < 2; i++ {
			key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fill(key, n)
			fill(val, n)
			m.SetMapIndex(key, val)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(v.Field(i), n)
			}
		}
	}
}

// empty sets every slice and map under v to an empty, non-nil one.
func empty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				empty(v.Field(i))
			}
		}
	}
}

// variants returns the zero, filled and emptied values of t.
func variants(t reflect.Type) map[string]reflect.Value {
	zero := reflect.New(t).Elem()
	filled := reflect.New(t).Elem()
	n := 0
	fill(filled, &n)
	emptied := reflect.New(t).Elem()
	empty(emptied)
	return map[string]reflect.Value{"zero": zero, "filled": filled, "empty": emptied}
}

// roundTrip encodes v and decodes the bytes as v's type.
func roundTrip(t *testing.T, v reflect.Value) ([]byte, any) {
	t.Helper()
	data, err := encodePayload(v.Interface())
	if err != nil {
		t.Fatalf("encode %s: %v", v.Type(), err)
	}
	got := reflect.New(v.Type())
	if err := decodePayload(data, got.Interface()); err != nil {
		t.Fatalf("decode %s: %v", v.Type(), err)
	}
	return data, got.Elem().Interface()
}

// jsonRoundTrip is the canonicalisation the codec replaced, kept here as
// the reference for what a round trip keeps.
func jsonRoundTrip(t *testing.T, v reflect.Value) any {
	t.Helper()
	b, err := json.Marshal(v.Interface())
	if err != nil {
		t.Fatal(err)
	}
	out := reflect.New(v.Type())
	if err := json.Unmarshal(b, out.Interface()); err != nil {
		t.Fatal(err)
	}
	return out.Elem().Interface()
}

// TestPayloadCodecRoundTrip: every sweep result type comes back from the
// codec deep-equal to the value encoded and to what the JSON round trip
// brought back, zero, filled and with empty slices; and every strict
// prefix of its encoding, or the encoding plus one byte, fails to
// decode.
func TestPayloadCodecRoundTrip(t *testing.T) {
	for name, zero := range payloadTypes {
		for variant, v := range variants(reflect.TypeOf(zero)) {
			data, got := roundTrip(t, v)
			if !reflect.DeepEqual(got, v.Interface()) {
				t.Errorf("%s (%s): round trip drifted\n got %+v\nwant %+v", name, variant, got, v.Interface())
			}
			if ref := jsonRoundTrip(t, v); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s (%s): codec and JSON round trips differ\ncodec %+v\n json %+v", name, variant, got, ref)
			}
			for i := 0; i < len(data); i++ {
				if err := decodePayload(data[:i], reflect.New(v.Type()).Interface()); err == nil {
					t.Errorf("%s (%s): %d-byte prefix of %d decoded", name, variant, i, len(data))
				}
			}
			err := decodePayload(append(data[:len(data):len(data)], 0), reflect.New(v.Type()).Interface())
			if err == nil || !strings.Contains(err.Error(), "trailing") {
				t.Errorf("%s (%s): trailing byte: err = %v", name, variant, err)
			}
		}
	}
}

type codecInner struct {
	X int
	Y []float64
}

type CodecExported struct{ Z string }

// codecRules exercises each rule the JSON round trip kept: skipped and
// unexported fields, nil apart from empty, pointers, arrays, maps with
// integer keys, and embedded structs.
type codecRules struct {
	Kept     float32
	Skipped  float64 `json:"-"`
	hidden   int
	Renamed  int8 `json:"renamed,omitempty"`
	Nil      []int
	Empty    []int
	NilMap   map[string]int
	EmptyMap map[int]float64
	Ptr      *stats.Summary
	NilPtr   *int
	Arr      [3]uint16
	Keys     map[uint8][]string
	Nested   struct {
		A bool
		B []string
	}
	codecInner
	CodecExported
}

func TestPayloadCodecMatchesJSONRules(t *testing.T) {
	v := codecRules{
		Kept: 1.5, Skipped: 7, hidden: 3, Renamed: -4,
		Empty: []int{}, EmptyMap: map[int]float64{},
		Ptr:  &stats.Summary{N: 2, Median: 0.25},
		Arr:  [3]uint16{1, 0, 65535},
		Keys: map[uint8][]string{9: {"a"}, 2: nil, 200: {}},
	}
	v.Nested.B = []string{"", "x"}
	v.X, v.Y = -1, []float64{math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1)}
	v.Z = "embedded"
	_, got := roundTrip(t, reflect.ValueOf(v))
	if ref := jsonRoundTrip(t, reflect.ValueOf(v)); !reflect.DeepEqual(got, ref) {
		t.Fatalf("codec and JSON round trips differ\ncodec %+v\n json %+v", got, ref)
	}
	r := got.(codecRules)
	if r.Skipped != 0 || r.hidden != 0 || r.Nil != nil || r.Empty == nil || r.EmptyMap == nil || r.NilPtr != nil || r.Z != "embedded" {
		t.Fatalf("rules not kept: %+v", r)
	}
	// Map order is sorted, so equal maps encode to equal bytes.
	a, _ := encodePayload(map[string]int{"b": 2, "a": 1, "c": 3})
	for i := 0; i < 20; i++ {
		if b, _ := encodePayload(map[string]int{"c": 3, "a": 1, "b": 2}); string(a) != string(b) {
			t.Fatal("map encoding depends on iteration order")
		}
	}
}

// TestPayloadCodecRejectsNonFinite: NaN and ±Inf anywhere in a result
// are encode errors, so the point fails (TestExecutePointRejectsNaN)
// instead of replaying a value that compares differently.
func TestPayloadCodecRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]any{
		"top":     nan,
		"float32": struct{ F float32 }{float32(math.Inf(-1))},
		"slice":   struct{ S []float64 }{[]float64{1, nan}},
		"map":     struct{ M map[string]float64 }{map[string]float64{"a": 1, "b": -inf}},
		"pointer": struct{ P *stats.Summary }{&stats.Summary{Max: inf}},
		"array":   [2]float64{0, nan},
		"nested":  Fig2Result{LatencyAlone: stats.Summary{Mean: nan}},
	}
	for name, v := range cases {
		_, err := encodePayload(v)
		if err == nil || !(strings.Contains(err.Error(), "NaN") || strings.Contains(err.Error(), "Inf")) {
			t.Errorf("%s: err = %v, want a non-finite value error", name, err)
		}
	}
}

// TestPayloadCodecRejectsUnsupportedKinds: a field whose kind the codec
// cannot carry is an error naming its type, on encode and on decode.
func TestPayloadCodecRejectsUnsupportedKinds(t *testing.T) {
	cases := []struct {
		v    any
		name string
	}{
		{struct{ X any }{1}, "interface {}"},
		{struct{ F func() }{}, "func()"},
		{struct{ C chan int }{}, "chan int"},
		{struct{ Z complex128 }{1i}, "complex128"},
		{struct{ S []struct{ Z complex64 } }{}, "complex64"},
		{struct{ M map[float64]int }{}, "float64"},
		{struct{ S []struct{} }{}, "[]struct {}"},
	}
	for _, c := range cases {
		_, err := encodePayload(c.v)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("encode %T: err = %v, want one naming %s", c.v, err, c.name)
		}
		err = decodePayload(nil, reflect.New(reflect.TypeOf(c.v)).Interface())
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("decode %T: err = %v, want one naming %s", c.v, err, c.name)
		}
	}
	if _, err := encodePayload(nil); err == nil {
		t.Error("encoded a nil result")
	}
}

// TestPayloadLengthPrefixBounded: a length prefix claiming more elements
// than the rest of the input can hold is a decode error, raised before
// anything of that length is allocated.
func TestPayloadLengthPrefixBounded(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := map[string]any{
		"slice":  new([]float64),
		"string": new(string),
		"map":    new(map[string]float64),
		"nested": new(Fig2Result),
	}
	for name, dst := range cases {
		data := append(append([]byte(nil), huge...), make([]byte, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodePayload(data, dst)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded a %d-element claim from %d bytes", name, uint64(1<<40), len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: allocated %d bytes for a %d-byte input", name, grew, len(data))
		}
	}
}

// FuzzDecodePayload: arbitrary bytes decoded as any sweep result type
// either fail or yield a value that round-trips through the codec; they
// never panic; and the offset path decodes them exactly as the
// reflective plan does, to the same value or the same error.
func FuzzDecodePayload(f *testing.F) {
	for _, zero := range payloadTypes {
		for _, v := range variants(reflect.TypeOf(zero)) {
			data, err := encodePayload(v.Interface())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			f.Add(data[:len(data)/2])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, zero := range payloadTypes {
			checkDecode(t, data, reflect.TypeOf(zero))
		}
	})
}

func checkDecode(t *testing.T, data []byte, typ reflect.Type) {
	dst := reflect.New(typ)
	err := decodePayload(data, dst.Interface())
	ref := reflect.New(typ)
	offsetDecode = false
	refErr := decodePayload(data, ref.Interface())
	offsetDecode = true
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%s: offset path err = %v, reflective plan err = %v", typ, err, refErr)
	}
	if err != nil {
		return
	}
	v := dst.Elem()
	if !sameBits(v, ref.Elem()) {
		t.Fatalf("%s: offset path decoded %+v, reflective plan %+v", typ, v, ref.Elem())
	}
	again, err := encodePayload(v.Interface())
	if err != nil {
		return // the input held a NaN or ±Inf bit pattern
	}
	back := reflect.New(v.Type())
	if err := decodePayload(again, back.Interface()); err != nil {
		t.Fatalf("re-encoded %s does not decode: %v", v.Type(), err)
	}
	if !reflect.DeepEqual(back.Elem().Interface(), v.Interface()) {
		t.Fatalf("%s drifted on a second round trip", v.Type())
	}
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so
// that values holding the same NaN compare equal.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Pointer:
		return a.IsNil() == b.IsNil() && (a.IsNil() || sameBits(a.Elem(), b.Elem()))
	case reflect.Slice, reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		if a.Kind() == reflect.Map {
			for _, k := range a.MapKeys() {
				if y := b.MapIndex(k); !y.IsValid() || !sameBits(a.MapIndex(k), y) {
					return false
				}
			}
			return true
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unexpected kind " + a.Kind().String())
}

// TestOffsetDecodeLeaves: every scalar kind, nested and embedded, and
// the fields between them decode through the offset path as through the
// reflective plan, overflow refusals included. (codecRules covers an
// unexported embedded struct.)
func TestOffsetDecodeLeaves(t *testing.T) {
	type Leaves struct {
		B   bool
		I   int
		I8  int8
		I16 int16
		I32 int32
		I64 int64
		U   uint
		U8  uint8
		U16 uint16
		U32 uint32
		U64 uint64
		UP  uintptr
		F32 float32
		F64 float64
		P   Placement
	}
	type outer struct {
		Head string
		Leaves
		Mid   []int
		Inner struct {
			L    Leaves
			Tail map[string]int
		}
		Arr [2]int16
	}
	var v outer
	n := 0
	fill(reflect.ValueOf(&v).Elem(), &n)
	data, err := encodePayload(v)
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, data, reflect.TypeOf(v))
	var got outer
	if err := decodePayload(data, &got); err != nil || !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip: err %v\n got %+v\nwant %+v", err, got, v)
	}
	// A leaf given a value its type cannot hold fails with the
	// reflective plan's message.
	type level int8
	for _, c := range []struct {
		v    any
		enc  []byte
		want string
	}{
		{struct{ X int8 }{}, binary.AppendVarint(nil, 300), "300 overflows int8"},
		{struct{ X int32 }{}, binary.AppendVarint(nil, math.MinInt32-1), "-2147483649 overflows int32"},
		{struct{ X level }{}, binary.AppendVarint(nil, -129), "-129 overflows bench.level"},
		{struct{ X uint16 }{}, binary.AppendUvarint(nil, 70000), "70000 overflows uint16"},
		{struct{ X struct{ Y uint8 } }{}, binary.AppendUvarint(nil, 256), "256 overflows uint8"},
	} {
		typ := reflect.TypeOf(c.v)
		checkDecode(t, c.enc, typ)
		err := decodePayload(c.enc, reflect.New(typ).Interface())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", typ, err, c.want)
		}
	}
}

// BenchmarkDecodePoints encodes and decodes one Figure 5 batch of
// contention cells (four placements, every core count of a henri node),
// the records that dominate a warm campaign's replay.
func BenchmarkDecodePoints(b *testing.B) {
	n := 4 * (quietEnv().Spec.Cores() - 1)
	cells := make([]any, n) // as the points' Fns return them
	pts := make([]Point, n)
	recs := make([]PointRecord, n)
	k := 0
	for i := range cells {
		var c ContentionPoint
		fill(reflect.ValueOf(&c).Elem(), &k)
		cells[i] = c
		pts[i].Key = fmt.Sprintf("contention/cell=%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range cells {
			payload, err := encodePayload(cells[j])
			if err != nil {
				b.Fatal(err)
			}
			recs[j].Payload = payload
		}
		decodeSink = decodePoints[ContentionPoint](pts, recs)
	}
}

var decodeSink []ContentionPoint
