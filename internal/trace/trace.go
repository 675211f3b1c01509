// Package trace renders experiment series as CSV and aligned ASCII
// tables, the output formats of the benchmark harness (cmd/interference
// writes the same rows the paper's figures plot).
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"
)

// Table is a rectangular result set with named columns.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// NewTable creates an empty table with the given title and columns.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row, formatting each cell as fmt's %v would (floats as
// %.4g). The common cell types skip fmt, since strconv yields the same
// bytes, and the row's cells share one string.
func (t *Table) Add(cells ...any) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("trace: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	var scratch [256]byte
	var endsBuf [16]int
	b, ends := scratch[:0], endsBuf[:0]
	for _, c := range cells {
		b = appendCell(b, c)
		ends = append(ends, len(b))
	}
	text := string(b)
	row := make([]string, len(cells))
	start := 0
	for i, end := range ends {
		row[i] = text[start:end]
		start = end
	}
	t.Rows = append(t.Rows, row)
}

// appendCell appends one cell's text: strconv for strings, floats and
// the int types, fmt for anything else.
func appendCell(b []byte, c any) []byte {
	switch v := c.(type) {
	case string:
		return append(b, v...)
	case float64:
		return strconv.AppendFloat(b, v, 'g', 4, 64)
	case float32:
		return strconv.AppendFloat(b, float64(v), 'g', 4, 32)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case int64:
		return strconv.AppendInt(b, v, 10)
	}
	return fmt.Append(b, c)
}

// WriteCSV emits the table as CSV (RFC-4180-style quoting for cells
// containing commas or quotes).
func (t *Table) WriteCSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the ASCII form: aligned columns under a title rule,
// readable on a terminal.
func (t *Table) String() string { return ASCII([]*Table{t}) }

// ASCII renders the ASCII forms of tables, separated by blank lines,
// into one buffer sized up front that becomes the string.
func ASCII(tables []*Table) string {
	widths := make([][]int, len(tables))
	n := max(len(tables)-1, 0)
	for i, t := range tables {
		w := make([]int, len(t.Columns))
		for j, c := range t.Columns {
			w[j] = len(c)
		}
		for _, row := range t.Rows {
			for j, c := range row {
				w[j] = max(w[j], len(c))
			}
		}
		line := 1 // the newline
		for j, x := range w {
			if j > 0 {
				line += 2
			}
			line += x
		}
		n += (len(t.Rows) + 2) * line
		if t.Title != "" {
			n += 2 * (len(t.Title) + 1)
		}
		widths[i] = w
	}
	b := make([]byte, 0, n)
	for i, t := range tables {
		if i > 0 {
			b = append(b, '\n')
		}
		if t.Title != "" {
			b = append(b, t.Title...)
			b = append(b, '\n')
			b = pad(b, '=', len(t.Title))
			b = append(b, '\n')
		}
		b = appendRow(b, widths[i], t.Columns)
		for j, w := range widths[i] {
			if j > 0 {
				b = append(b, "  "...)
			}
			b = pad(b, '-', w)
		}
		b = append(b, '\n')
		for _, row := range t.Rows {
			b = appendRow(b, widths[i], row)
		}
	}
	// Nothing writes b again, so the string may share its bytes, as
	// strings.Builder's does.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendRow appends one line of cells, each padded to its column width.
func appendRow(b []byte, widths []int, cells []string) []byte {
	for i, c := range cells {
		if i > 0 {
			b = append(b, "  "...)
		}
		b = append(b, c...)
		b = pad(b, ' ', widths[i]-len(c))
	}
	return append(b, '\n')
}

// pad appends n copies of c to b.
func pad(b []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, c)
	}
	return b
}
