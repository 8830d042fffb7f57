// Package table provides the in-memory columnar table representation used
// by the execution engine, the Memory Catalog and the on-disk format: a
// schema of typed columns plus one value vector per column.
//
// The package owns the vector layout — which of a Vector's three parallel
// slices holds its values, chosen by Type — and the primitives that make,
// view, append to and empty a vector (MakeVector, Slice, AppendVector,
// AppendRows, AppendAt, Reset), so no other package switches on a vector's
// type to do any of that.
package table

import (
	"fmt"
	"strings"
)

// Type enumerates column types. The engine supports 64-bit integers,
// 64-bit floats and strings, which covers the TPC-DS workloads used in the
// paper's evaluation (dates are encoded as yyyymmdd integers, as TPC-DS
// surrogate keys do).
type Type uint8

// Column types.
const (
	Int Type = iota
	Float
	Str
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case Str:
		return "STRING"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Column is a named, typed column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema struct {
	Cols []Column
}

// NewSchema builds a schema from name:type pairs.
func NewSchema(cols ...Column) Schema { return Schema{Cols: cols} }

// ColIndex returns the index of the named column, or -1. Matching is
// case-insensitive, like SQL identifiers.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// NumCols returns the number of columns.
func (s Schema) NumCols() int { return len(s.Cols) }

// Equal reports whether two schemas have identical columns.
func (s Schema) Equal(o Schema) bool {
	if len(s.Cols) != len(o.Cols) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(a INT, b STRING)".
func (s Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Vector is a typed column of values; exactly one of the slices is in use,
// determined by Type.
type Vector struct {
	Type   Type
	Ints   []int64
	Floats []float64
	Strs   []string
}

// MakeVector returns a vector of type t holding n zero values, with room
// for capacity values.
func MakeVector(t Type, n, capacity int) *Vector {
	v := &Vector{Type: t}
	switch t {
	case Int:
		v.Ints = make([]int64, n, capacity)
	case Float:
		v.Floats = make([]float64, n, capacity)
	default:
		v.Strs = make([]string, n, capacity)
	}
	return v
}

// Slice returns a view of rows [lo, hi): it shares v's storage, so writes
// through one show in the other.
func (v *Vector) Slice(lo, hi int) Vector {
	out := Vector{Type: v.Type}
	switch v.Type {
	case Int:
		out.Ints = v.Ints[lo:hi]
	case Float:
		out.Floats = v.Floats[lo:hi]
	default:
		out.Strs = v.Strs[lo:hi]
	}
	return out
}

// AppendVector appends a copy of every value of src, which has v's type.
func (v *Vector) AppendVector(src *Vector) {
	switch v.Type {
	case Int:
		v.Ints = append(v.Ints, src.Ints...)
	case Float:
		v.Floats = append(v.Floats, src.Floats...)
	default:
		v.Strs = append(v.Strs, src.Strs...)
	}
}

// AppendRows appends src's values at rows, in order; src has v's type.
func (v *Vector) AppendRows(src *Vector, rows []int32) {
	switch v.Type {
	case Int:
		for _, r := range rows {
			v.Ints = append(v.Ints, src.Ints[r])
		}
	case Float:
		for _, r := range rows {
			v.Floats = append(v.Floats, src.Floats[r])
		}
	default:
		for _, r := range rows {
			v.Strs = append(v.Strs, src.Strs[r])
		}
	}
}

// AppendAt appends src's value at row i; src has v's type.
func (v *Vector) AppendAt(src *Vector, i int) {
	switch v.Type {
	case Int:
		v.Ints = append(v.Ints, src.Ints[i])
	case Float:
		v.Floats = append(v.Floats, src.Floats[i])
	default:
		v.Strs = append(v.Strs, src.Strs[i])
	}
}

// Reset empties v, keeping its type and storage.
func (v *Vector) Reset() {
	v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
}

// Len returns the number of values.
func (v *Vector) Len() int {
	switch v.Type {
	case Int:
		return len(v.Ints)
	case Float:
		return len(v.Floats)
	default:
		return len(v.Strs)
	}
}

// Append adds a value; it must match the vector type.
func (v *Vector) Append(val Value) error {
	if val.Type != v.Type {
		return fmt.Errorf("table: append %s value to %s vector", val.Type, v.Type)
	}
	switch v.Type {
	case Int:
		v.Ints = append(v.Ints, val.I)
	case Float:
		v.Floats = append(v.Floats, val.F)
	default:
		v.Strs = append(v.Strs, val.S)
	}
	return nil
}

// Value reads the value at row i.
func (v *Vector) Value(i int) Value {
	switch v.Type {
	case Int:
		return IntValue(v.Ints[i])
	case Float:
		return FloatValue(v.Floats[i])
	default:
		return StrValue(v.Strs[i])
	}
}

// Gather returns a new vector with the values at the given row indices.
func (v *Vector) Gather(idx []int) *Vector {
	out := &Vector{Type: v.Type}
	switch v.Type {
	case Int:
		out.Ints = make([]int64, len(idx))
		for k, i := range idx {
			out.Ints[k] = v.Ints[i]
		}
	case Float:
		out.Floats = make([]float64, len(idx))
		for k, i := range idx {
			out.Floats[k] = v.Floats[i]
		}
	default:
		out.Strs = make([]string, len(idx))
		for k, i := range idx {
			out.Strs[k] = v.Strs[i]
		}
	}
	return out
}

// ByteSize estimates the in-memory footprint of the vector.
func (v *Vector) ByteSize() int64 {
	switch v.Type {
	case Int, Float:
		return int64(v.Len()) * 8
	default:
		var n int64
		for _, s := range v.Strs {
			n += int64(len(s)) + 16 // string header overhead
		}
		return n
	}
}

// Value is a dynamically typed scalar.
type Value struct {
	Type Type
	I    int64
	F    float64
	S    string
}

// IntValue wraps an int64.
func IntValue(i int64) Value { return Value{Type: Int, I: i} }

// FloatValue wraps a float64.
func FloatValue(f float64) Value { return Value{Type: Float, F: f} }

// StrValue wraps a string.
func StrValue(s string) Value { return Value{Type: Str, S: s} }

// AsFloat converts numeric values to float64 for arithmetic.
func (v Value) AsFloat() float64 {
	if v.Type == Int {
		return float64(v.I)
	}
	return v.F
}

// Compare orders two values of the same type: -1, 0, or 1. Numeric types
// compare cross-type (INT vs FLOAT) by value.
func (v Value) Compare(o Value) (int, error) {
	if v.Type == Str || o.Type == Str {
		if v.Type != Str || o.Type != Str {
			return 0, fmt.Errorf("table: cannot compare %s with %s", v.Type, o.Type)
		}
		return strings.Compare(v.S, o.S), nil
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1, nil
	case a > b:
		return 1, nil
	default:
		return 0, nil
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Type {
	case Int:
		return fmt.Sprintf("%d", v.I)
	case Float:
		return fmt.Sprintf("%g", v.F)
	default:
		return v.S
	}
}

// Table is a columnar table: a schema plus one vector per column, all of
// equal length.
type Table struct {
	Schema Schema
	Cols   []*Vector
}

// New creates an empty table with the given schema.
func New(schema Schema) *Table {
	t := &Table{Schema: schema, Cols: make([]*Vector, len(schema.Cols))}
	for i, c := range schema.Cols {
		t.Cols[i] = &Vector{Type: c.Type}
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// AppendRow appends one value per column.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Cols) {
		return fmt.Errorf("table: row has %d values, schema has %d columns", len(vals), len(t.Cols))
	}
	for i, v := range vals {
		if err := t.Cols[i].Append(v); err != nil {
			return fmt.Errorf("table: column %q: %w", t.Schema.Cols[i].Name, err)
		}
	}
	return nil
}

// Row materializes row i as values (for tests and display; the engine works
// columnar where it matters).
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.Cols))
	for c, v := range t.Cols {
		out[c] = v.Value(i)
	}
	return out
}

// Gather returns a new table containing the given rows in order.
func (t *Table) Gather(idx []int) *Table {
	out := &Table{Schema: t.Schema, Cols: make([]*Vector, len(t.Cols))}
	for c, v := range t.Cols {
		out.Cols[c] = v.Gather(idx)
	}
	return out
}

// ByteSize estimates the table's in-memory footprint; the Memory Catalog
// accounts with this value.
func (t *Table) ByteSize() int64 {
	var n int64
	for _, v := range t.Cols {
		n += v.ByteSize()
	}
	return n
}

// Column returns the vector of the named column, or nil.
func (t *Table) Column(name string) *Vector {
	i := t.Schema.ColIndex(name)
	if i < 0 {
		return nil
	}
	return t.Cols[i]
}

// Validate checks that all column vectors agree in length and type.
func (t *Table) Validate() error {
	if len(t.Cols) != len(t.Schema.Cols) {
		return fmt.Errorf("table: %d vectors for %d schema columns", len(t.Cols), len(t.Schema.Cols))
	}
	n := t.NumRows()
	for i, v := range t.Cols {
		if v.Type != t.Schema.Cols[i].Type {
			return fmt.Errorf("table: column %q type %s, schema says %s", t.Schema.Cols[i].Name, v.Type, t.Schema.Cols[i].Type)
		}
		if v.Len() != n {
			return fmt.Errorf("table: column %q has %d rows, want %d", t.Schema.Cols[i].Name, v.Len(), n)
		}
	}
	return nil
}
