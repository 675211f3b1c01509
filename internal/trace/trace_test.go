package trace

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add(1, 2.5)
	tb.Add("x,y", `q"u`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2.5\n\"x,y\",\"q\"\"u\"\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
}

func TestTableASCIIAligned(t *testing.T) {
	tb := NewTable("Demo", "col", "value")
	tb.Add("x", 1.0)
	tb.Add("longer", 2.0)
	out := tb.String()
	if !strings.Contains(out, "Demo\n====") {
		t.Fatalf("missing title rule:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + rule + 2 rows + title/rule = 6 lines.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Aligned: all data lines have the same column offset for "value".
	if !strings.HasPrefix(lines[2], "col   ") {
		t.Fatalf("header misaligned: %q", lines[2])
	}
}

func TestAddWrongArityPanics(t *testing.T) {
	tb := NewTable("t", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong arity accepted")
		}
	}()
	tb.Add(1)
}

func TestFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.Add(10.123456)
	if tb.Rows[0][0] != "10.12" {
		t.Fatalf("float formatted as %q", tb.Rows[0][0])
	}
	tb.Add(float32(2.0))
	if tb.Rows[1][0] != "2" {
		t.Fatalf("float32 formatted as %q", tb.Rows[1][0])
	}
}

type stringer struct{}

func (stringer) String() string { return "stringer" }

// TestAddMatchesFmt: every cell Add formats without fmt reads exactly as
// fmt's %.4g (floats) or %v (the rest) would have rendered it.
func TestAddMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072e-309,
		math.MaxFloat64, 1e21, -1e21, 1e20, 1e-5, 1e-4, 123456, 9999.5, 99995, 0.00012345,
		1.2345, 1.23449999, 2.5e-7, 10.123456,
	}
	var cells []any
	for _, f := range floats {
		cells = append(cells, f, float32(f))
	}
	cells = append(cells, float32(math.SmallestNonzeroFloat32), float32(16777217), float32(0.1),
		0, -1, math.MaxInt, math.MinInt, int64(math.MaxInt64), int64(math.MinInt64), int64(-42),
		true, false, "", "x,y", int32(7), uint8(3), stringer{}, []int{1, 2}, nil)
	for _, c := range cells {
		tb := NewTable("", "v")
		tb.Add(c)
		var want string
		switch c.(type) {
		case float64, float32:
			want = fmt.Sprintf("%.4g", c)
		default:
			want = fmt.Sprint(c)
		}
		if got := tb.Rows[0][0]; got != want {
			t.Errorf("%T %v: Add gave %q, fmt gives %q", c, c, got, want)
		}
	}
}

// FuzzTableCell: a float64 of any bit pattern formats as %.4g does.
func FuzzTableCell(f *testing.F) {
	for _, seed := range []uint64{0, 1 << 63, math.Float64bits(math.Inf(1)), math.Float64bits(math.NaN()), math.Float64bits(1e21), 1} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		tb := NewTable("", "f64", "f32")
		tb.Add(v, float32(v))
		if got, want := tb.Rows[0][0], fmt.Sprintf("%.4g", v); got != want {
			t.Fatalf("%#x: Add gave %q, fmt gives %q", bits, got, want)
		}
		if got, want := tb.Rows[0][1], fmt.Sprintf("%.4g", float32(v)); got != want {
			t.Fatalf("float32 of %#x: Add gave %q, fmt gives %q", bits, got, want)
		}
	})
}

// referenceASCII is the ASCII form as the table's WriteASCII wrote it
// before rendering appended into one buffer, kept as the byte-for-byte
// reference.
func referenceASCII(t *Table) string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
		b.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c + strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// TestWriteASCIIMatchesReference: String, and ASCII over several
// tables, render the reference's bytes.
func TestWriteASCIIMatchesReference(t *testing.T) {
	wide := NewTable("Fig 5 — memory-bound placement (µs)", "cores", "latency", "bandwidth")
	for i := 0; i < 30; i++ {
		wide.Add(i, float64(i)*1.37, "GB/s ×"+strings.Repeat("é", i%4))
	}
	ragged := NewTable("ragged", "a", "b", "c")
	ragged.Rows = append(ragged.Rows, []string{"long cell"}, []string{"", "x"})
	tables := []struct {
		name string
		tb   *Table
	}{
		{"empty title", func() *Table { tb := NewTable("", "a", "bb"); tb.Add(1, "xyz"); return tb }()},
		{"zero rows", NewTable("nothing measured", "col", "value")},
		{"no columns", NewTable("bare")},
		{"multi-byte", wide},
		{"short rows", ragged},
	}
	var all []*Table
	var joined []string
	for _, tc := range tables {
		name, tb := tc.name, tc.tb
		want := referenceASCII(tb)
		all, joined = append(all, tb), append(joined, want)
		if got := tb.String(); got != want {
			t.Errorf("%s: String\n%q\nwant\n%q", name, got, want)
		}
	}
	if got, want := ASCII(all), strings.Join(joined, "\n"); got != want {
		t.Errorf("ASCII\n%q\nwant\n%q", got, want)
	}
	if got := ASCII(nil); got != "" {
		t.Errorf("ASCII of no tables: %q", got)
	}
}
