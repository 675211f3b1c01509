package bench

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Point payload codec.
//
// A point's result crosses the sweep layer as bytes: ExecutePoint
// encodes the value its Fn returns, and RunPointsAs decodes the bytes
// as the sweep's result type, whether the record was computed a moment
// ago or replayed from the point cache. Both go through this one codec,
// so a cold and a warm campaign cannot diverge by a bit.
//
// The codec keeps what a JSON round trip of the value would keep —
// exported fields not tagged `json:"-"`, and nil apart from empty for
// slices, maps and pointers — at a small fraction of the cost. Each
// type's plan is built once by reflection and cached. The bytes carry
// no type information: they decode only as the type that encoded them.
//
// Layout, by kind:
//
//	bool          1 byte, 0 or 1
//	int kinds     zig-zag varint
//	uint kinds    uvarint
//	float32/64    4/8 bytes IEEE-754 little-endian (NaN and ±Inf are
//	              encode errors)
//	string        uvarint length + bytes
//	slice, map    uvarint 0 for nil, else 1 + length, then the elements
//	              (a map's as key, value pairs in ascending key order)
//	pointer       1 byte, 0 for nil, else 1 followed by the element
//	array         the elements
//	struct        the encoded fields in declaration order
//
// Interface, func, chan, complex and unsafe-pointer values, map keys
// that are not strings or integers, recursive types and slices whose
// elements encode to no bytes have no plan: encoding or decoding them
// is an error that names the type.
//
// A struct decodes its bool, integer and float leaves through their
// byte offset from the struct's address, nested and embedded structs'
// leaves included, instead of a reflect.Value per field; the struct's
// other fields, and every field on encode, go through reflection.

// codec is the encode/decode plan of one type. min is the fewest bytes
// a value of the type encodes to; it bounds how many elements a length
// prefix may claim from the input that is left.
type codec struct {
	enc func(e *encoder, v reflect.Value)
	dec func(d *recDecoder, v reflect.Value)
	// at, set for the fixed-size scalar kinds, decodes a value straight
	// into the memory p points to.
	at func(d *recDecoder, p unsafe.Pointer)
	// steps, set for a struct, decode its fields in encoding order, the
	// fields of nested and embedded structs spliced in.
	steps []fieldStep
	min   int
}

// fieldStep decodes one field of a struct: a scalar leaf through at, at
// off bytes from the struct's address; any other field through its
// plan c, as the field index reaches it.
type fieldStep struct {
	off   uintptr
	at    func(d *recDecoder, p unsafe.Pointer)
	index []int
	c     *codec
}

// offsetDecode lets struct plans decode scalar leaves through their
// offsets. It is a variable only so tests can force the reflective path.
var offsetDecode = true

// codecs caches the plan of every type encoded or decoded so far.
var codecs sync.Map // reflect.Type → *codec

// encoders pools the scratch buffers payloads are encoded into.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

type encoder struct {
	buf []byte
	err error
}

// encodePayload encodes v into a new slice of exactly its encoded size.
func encodePayload(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, errors.New("bench: cannot encode a nil result")
	}
	c, err := codecFor(rv.Type())
	if err != nil {
		return nil, err
	}
	e := encoders.Get().(*encoder)
	defer encoders.Put(e)
	e.buf, e.err = e.buf[:0], nil
	c.enc(e, rv)
	if e.err != nil {
		return nil, fmt.Errorf("bench: cannot encode %s: %w", rv.Type(), e.err)
	}
	return append(make([]byte, 0, len(e.buf)), e.buf...), nil
}

// decodePayload decodes data into the zero value dst points to. The
// whole input must be one value of that type.
func decodePayload(data []byte, dst any) error {
	rv := reflect.ValueOf(dst)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("bench: cannot decode into %T", dst)
	}
	t := rv.Type().Elem()
	c, err := codecFor(t)
	if err != nil {
		return err
	}
	d := recDecoder{data: data}
	c.dec(&d, rv.Elem())
	if d.err != nil {
		return fmt.Errorf("bench: decoding %s: %w", t, d.err)
	}
	if d.left() != 0 {
		return fmt.Errorf("bench: %d trailing bytes after %s", d.left(), t)
	}
	return nil
}

// codecFor returns t's plan, building and caching it on first use.
func codecFor(t reflect.Type) (*codec, error) {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec), nil
	}
	c, err := plan(t, map[reflect.Type]bool{})
	if err != nil {
		return nil, fmt.Errorf("bench: no codec for %s: %w", t, err)
	}
	got, _ := codecs.LoadOrStore(t, c)
	return got.(*codec), nil
}

// plan builds t's codec; visiting holds the types being planned further
// up, to refuse a recursive type instead of looping.
func plan(t reflect.Type, visiting map[reflect.Type]bool) (*codec, error) {
	if visiting[t] {
		return nil, fmt.Errorf("%s is recursive", t)
	}
	visiting[t] = true
	defer delete(visiting, t)

	switch t.Kind() {
	case reflect.Bool:
		return &codec{enc: encBool, dec: decBool, at: decBoolAt, min: 1}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &codec{enc: encInt, dec: decInt, at: intAt(t), min: 1}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return &codec{enc: encUint, dec: decUint, at: uintAt(t), min: 1}, nil
	case reflect.Float32:
		return &codec{enc: encFloat32, dec: decFloat32, at: decFloat32At, min: 4}, nil
	case reflect.Float64:
		return &codec{enc: encFloat64, dec: decFloat64, at: decFloat64At, min: 8}, nil
	case reflect.String:
		return &codec{enc: encString, dec: decString, min: 1}, nil
	case reflect.Pointer:
		return planPointer(t, visiting)
	case reflect.Slice:
		return planSlice(t, visiting)
	case reflect.Array:
		return planArray(t, visiting)
	case reflect.Map:
		return planMap(t, visiting)
	case reflect.Struct:
		return planStruct(t, visiting)
	}
	return nil, fmt.Errorf("%s values are not supported", t)
}

func planPointer(t reflect.Type, visiting map[reflect.Type]bool) (*codec, error) {
	elem, err := plan(t.Elem(), visiting)
	if err != nil {
		return nil, err
	}
	et := t.Elem()
	return &codec{
		enc: func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.buf = append(e.buf, 0)
				return
			}
			e.buf = append(e.buf, 1)
			elem.enc(e, v.Elem())
		},
		dec: func(d *recDecoder, v reflect.Value) {
			switch d.u8() {
			case 0:
			case 1:
				p := reflect.New(et)
				elem.dec(d, p.Elem())
				v.Set(p)
			default:
				d.fail(errors.New("bad pointer flag"))
			}
		},
		min: 1,
	}, nil
}

func planSlice(t reflect.Type, visiting map[reflect.Type]bool) (*codec, error) {
	elem, err := plan(t.Elem(), visiting)
	if err != nil {
		return nil, err
	}
	if elem.min == 0 {
		return nil, fmt.Errorf("%s: elements encode to no bytes", t)
	}
	return &codec{
		enc: func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.buf = append(e.buf, 0)
				return
			}
			n := v.Len()
			e.buf = binary.AppendUvarint(e.buf, uint64(n)+1)
			for i := 0; i < n; i++ {
				elem.enc(e, v.Index(i))
			}
		},
		dec: func(d *recDecoder, v reflect.Value) {
			n := d.length(elem.min)
			if n < 0 {
				return
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n && d.err == nil; i++ {
				elem.dec(d, s.Index(i))
			}
			v.Set(s)
		},
		min: 1,
	}, nil
}

func planArray(t reflect.Type, visiting map[reflect.Type]bool) (*codec, error) {
	elem, err := plan(t.Elem(), visiting)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	return &codec{
		enc: func(e *encoder, v reflect.Value) {
			for i := 0; i < n; i++ {
				elem.enc(e, v.Index(i))
			}
		},
		dec: func(d *recDecoder, v reflect.Value) {
			for i := 0; i < n && d.err == nil; i++ {
				elem.dec(d, v.Index(i))
			}
		},
		min: n * elem.min,
	}, nil
}

func planMap(t reflect.Type, visiting map[reflect.Type]bool) (*codec, error) {
	var order func(a, b reflect.Value) int
	switch t.Key().Kind() {
	case reflect.String:
		order = func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		order = func(a, b reflect.Value) int { return cmp.Compare(a.Int(), b.Int()) }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		order = func(a, b reflect.Value) int { return cmp.Compare(a.Uint(), b.Uint()) }
	default:
		return nil, fmt.Errorf("%s: map keys of type %s are not supported", t, t.Key())
	}
	key, err := plan(t.Key(), visiting)
	if err != nil {
		return nil, err
	}
	val, err := plan(t.Elem(), visiting)
	if err != nil {
		return nil, err
	}
	return &codec{
		enc: func(e *encoder, v reflect.Value) {
			if v.IsNil() {
				e.buf = append(e.buf, 0)
				return
			}
			keys := v.MapKeys()
			slices.SortFunc(keys, order)
			e.buf = binary.AppendUvarint(e.buf, uint64(len(keys))+1)
			for _, k := range keys {
				key.enc(e, k)
				val.enc(e, v.MapIndex(k))
			}
		},
		dec: func(d *recDecoder, v reflect.Value) {
			n := d.length(key.min + val.min)
			if n < 0 {
				return
			}
			m := reflect.MakeMapWithSize(t, n)
			for i := 0; i < n && d.err == nil; i++ {
				k := reflect.New(t.Key()).Elem()
				key.dec(d, k)
				x := reflect.New(t.Elem()).Elem()
				val.dec(d, x)
				m.SetMapIndex(k, x)
			}
			v.Set(m)
		},
		min: 1,
	}, nil
}

func planStruct(t reflect.Type, visiting map[reflect.Type]bool) (*codec, error) {
	type field struct {
		index int
		*codec
	}
	var fields []field
	var steps []fieldStep
	size := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		// Like encoding/json, keep the exported fields of an embedded
		// struct even when its type is unexported.
		embedded := f.Anonymous && f.Type.Kind() == reflect.Struct
		if !(f.IsExported() || embedded) || f.Tag.Get("json") == "-" {
			continue
		}
		c, err := plan(f.Type, visiting)
		if err != nil {
			return nil, fmt.Errorf("field %s.%s: %w", t, f.Name, err)
		}
		fields = append(fields, field{i, c})
		size += c.min
		switch {
		case c.at != nil:
			steps = append(steps, fieldStep{off: f.Offset, at: c.at})
		case f.Type.Kind() == reflect.Struct:
			for _, s := range c.steps {
				s.off += f.Offset
				if s.index != nil {
					s.index = append([]int{i}, s.index...)
				}
				steps = append(steps, s)
			}
		default:
			steps = append(steps, fieldStep{index: []int{i}, c: c})
		}
	}
	return &codec{
		enc: func(e *encoder, v reflect.Value) {
			for _, f := range fields {
				f.enc(e, v.Field(f.index))
			}
		},
		dec: func(d *recDecoder, v reflect.Value) {
			if !offsetDecode {
				for _, f := range fields {
					f.dec(d, v.Field(f.index))
				}
				return
			}
			base := v.Addr().UnsafePointer()
			for i := range steps {
				s := &steps[i]
				if s.at != nil {
					s.at(d, unsafe.Add(base, s.off))
				} else {
					s.c.dec(d, v.FieldByIndex(s.index))
				}
			}
		},
		steps: steps,
		min:   size,
	}, nil
}

func encBool(e *encoder, v reflect.Value) {
	b := byte(0)
	if v.Bool() {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func decBool(d *recDecoder, v reflect.Value) {
	switch d.u8() {
	case 0:
	case 1:
		v.SetBool(true)
	default:
		d.fail(errors.New("bad bool"))
	}
}

func decBoolAt(d *recDecoder, p unsafe.Pointer) {
	switch d.u8() {
	case 0:
	case 1:
		*(*bool)(p) = true
	default:
		d.fail(errors.New("bad bool"))
	}
}

func encInt(e *encoder, v reflect.Value) { e.buf = binary.AppendVarint(e.buf, v.Int()) }

func decInt(d *recDecoder, v reflect.Value) {
	x := d.varint()
	if v.OverflowInt(x) {
		d.fail(fmt.Errorf("%d overflows %s", x, v.Type()))
		return
	}
	v.SetInt(x)
}

// intAt returns the pointer decoder of the signed integer type t.
func intAt(t reflect.Type) func(d *recDecoder, p unsafe.Pointer) {
	switch t.Kind() {
	case reflect.Int8:
		return decIntAt[int8](t)
	case reflect.Int16:
		return decIntAt[int16](t)
	case reflect.Int32:
		return decIntAt[int32](t)
	case reflect.Int64:
		return decIntAt[int64](t)
	}
	return decIntAt[int](t)
}

// decIntAt decodes a T, refusing as decInt does a value T cannot hold.
func decIntAt[T int | int8 | int16 | int32 | int64](t reflect.Type) func(d *recDecoder, p unsafe.Pointer) {
	return func(d *recDecoder, p unsafe.Pointer) {
		x := d.varint()
		if int64(T(x)) != x {
			d.fail(fmt.Errorf("%d overflows %s", x, t))
			return
		}
		*(*T)(p) = T(x)
	}
}

func encUint(e *encoder, v reflect.Value) { e.buf = binary.AppendUvarint(e.buf, v.Uint()) }

func decUint(d *recDecoder, v reflect.Value) {
	x := d.uvarint()
	if v.OverflowUint(x) {
		d.fail(fmt.Errorf("%d overflows %s", x, v.Type()))
		return
	}
	v.SetUint(x)
}

// uintAt returns the pointer decoder of the unsigned integer type t.
func uintAt(t reflect.Type) func(d *recDecoder, p unsafe.Pointer) {
	switch t.Kind() {
	case reflect.Uint8:
		return decUintAt[uint8](t)
	case reflect.Uint16:
		return decUintAt[uint16](t)
	case reflect.Uint32:
		return decUintAt[uint32](t)
	case reflect.Uint64:
		return decUintAt[uint64](t)
	case reflect.Uintptr:
		return decUintAt[uintptr](t)
	}
	return decUintAt[uint](t)
}

// decUintAt decodes a T, refusing as decUint does a value T cannot hold.
func decUintAt[T uint | uint8 | uint16 | uint32 | uint64 | uintptr](t reflect.Type) func(d *recDecoder, p unsafe.Pointer) {
	return func(d *recDecoder, p unsafe.Pointer) {
		x := d.uvarint()
		if uint64(T(x)) != x {
			d.fail(fmt.Errorf("%d overflows %s", x, t))
			return
		}
		*(*T)(p) = T(x)
	}
}

func encFloat32(e *encoder, v reflect.Value) {
	if e.finite(v.Float()) {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, math.Float32bits(float32(v.Float())))
	}
}

func decFloat32(d *recDecoder, v reflect.Value) {
	if b := d.take(4); b != nil {
		v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
	}
}

func decFloat32At(d *recDecoder, p unsafe.Pointer) {
	if b := d.take(4); b != nil {
		*(*float32)(p) = math.Float32frombits(binary.LittleEndian.Uint32(b))
	}
}

func encFloat64(e *encoder, v reflect.Value) {
	if f := v.Float(); e.finite(f) {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
	}
}

func decFloat64(d *recDecoder, v reflect.Value) {
	if b := d.take(8); b != nil {
		v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
}

func decFloat64At(d *recDecoder, p unsafe.Pointer) {
	if b := d.take(8); b != nil {
		*(*float64)(p) = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

func encString(e *encoder, v reflect.Value) {
	s := v.String()
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func decString(d *recDecoder, v reflect.Value) {
	if b := d.take(int(d.uvarint())); len(b) > 0 {
		v.SetString(string(b))
	}
}

// finite latches an error for NaN and ±Inf, which have no place in a
// result that must compare and render the same after a round trip.
func (e *encoder) finite(f float64) bool {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("unsupported value %v", f)
		}
		return false
	}
	return true
}
