package table

import (
	"fmt"
	"math"
	"testing"
)

// primitiveCases are one vector per type. The FLOAT one carries a quiet
// and a signalling NaN with payloads, −0.0 and +0.0, which a copy must keep
// bit for bit.
func primitiveCases() []*Vector {
	return []*Vector{
		{Type: Int, Ints: []int64{7, -1, math.MinInt64, 0, math.MaxInt64}},
		{Type: Float, Floats: []float64{
			math.Float64frombits(0x7ff8_0000_0000_0001),
			math.Copysign(0, -1),
			math.Float64frombits(0x7ff0_0000_0000_dead),
			0,
			-2.5,
		}},
		{Type: Str, Strs: []string{"a", "", "bock", "ale", "stout"}},
	}
}

// bits renders row i so that NaN payloads and the sign of zero compare.
func bits(v *Vector, i int) string {
	switch v.Type {
	case Int:
		return fmt.Sprint(v.Ints[i])
	case Float:
		return fmt.Sprintf("%#x", math.Float64bits(v.Floats[i]))
	default:
		return fmt.Sprintf("%q", v.Strs[i])
	}
}

// wantRows requires v to hold src's rows at idx, in order, bit for bit.
func wantRows(t *testing.T, what string, v, src *Vector, idx []int32) {
	t.Helper()
	if v.Type != src.Type || v.Len() != len(idx) {
		t.Fatalf("%s: %v vector of %d rows, want %v of %d", what, v.Type, v.Len(), src.Type, len(idx))
	}
	for k, r := range idx {
		if got, want := bits(v, k), bits(src, int(r)); got != want {
			t.Fatalf("%s: row %d is %s, want %s", what, k, got, want)
		}
	}
}

// rowsOf returns lo, lo+1, …, hi-1.
func rowsOf(lo, hi int) []int32 {
	out := []int32{}
	for r := lo; r < hi; r++ {
		out = append(out, int32(r))
	}
	return out
}

// clobber overwrites row i of v with a value no case holds.
func clobber(v *Vector, i int) {
	switch v.Type {
	case Int:
		v.Ints[i] = 12345
	case Float:
		v.Floats[i] = 12345
	default:
		v.Strs[i] = "clobbered"
	}
}

func TestVectorPrimitives(t *testing.T) {
	ranges := [][2]int{{0, 0}, {2, 2}, {5, 5}, {0, 5}, {1, 4}, {4, 5}}
	for _, orig := range primitiveCases() {
		all := rowsOf(0, orig.Len())
		t.Run(orig.Type.String(), func(t *testing.T) {
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				what := fmt.Sprintf("[%d, %d)", lo, hi)
				src := MakeVector(orig.Type, 0, 0)
				src.AppendVector(orig)
				wantRows(t, "AppendVector", src, orig, all)

				view := src.Slice(lo, hi)
				wantRows(t, "Slice"+what, &view, orig, rowsOf(lo, hi))

				cp := &Vector{Type: src.Type}
				cp.AppendVector(&view)
				wantRows(t, "AppendVector"+what, cp, orig, rowsOf(lo, hi))

				rows := append(rowsOf(lo, hi), rowsOf(lo, hi)...) // repeats too
				gathered := &Vector{Type: src.Type}
				gathered.AppendRows(src, rows)
				wantRows(t, "AppendRows"+what, gathered, orig, rows)

				at := &Vector{Type: src.Type}
				for _, r := range rows {
					at.AppendAt(src, int(r))
				}
				wantRows(t, "AppendAt"+what, at, orig, rows)

				// The appended values are copies: writing them leaves src
				// as it was.
				for _, v := range []*Vector{cp, gathered, at} {
					for i := 0; i < v.Len(); i++ {
						clobber(v, i)
					}
				}
				wantRows(t, "src after appends"+what, src, orig, all)

				// A view shares src's storage.
				if hi > lo {
					clobber(&view, 0)
					if bits(src, lo) == bits(orig, lo) {
						t.Fatalf("Slice%s: a write through the view does not reach src", what)
					}
				}
			}

			m := MakeVector(orig.Type, 3, 8)
			zero := &Vector{Type: orig.Type, Ints: []int64{0}, Floats: []float64{0}, Strs: []string{""}}
			wantRows(t, "MakeVector", m, zero, []int32{0, 0, 0})
			if c := cap(m.Ints) + cap(m.Floats) + cap(m.Strs); c != 8 {
				t.Fatalf("MakeVector: capacity %d, want 8", c)
			}
			m.AppendVector(orig)
			m.Reset()
			if m.Type != orig.Type || m.Len() != 0 {
				t.Fatalf("Reset left a %v vector of %d rows", m.Type, m.Len())
			}
			m.AppendRows(orig, all)
			wantRows(t, "append after Reset", m, orig, all)
		})
	}
}

func TestVectorPrimitivesDoNotAllocate(t *testing.T) {
	for _, src := range primitiveCases() {
		rows := rowsOf(0, src.Len())
		dst := MakeVector(src.Type, 0, 2*src.Len())
		var view Vector
		checks := []struct {
			name string
			f    func()
		}{
			{"Slice", func() { view = src.Slice(1, 4) }},
			{"Reset", func() { dst.Reset() }},
			{"AppendRows", func() { dst.Reset(); dst.AppendRows(src, rows) }},
			{"AppendVector", func() { dst.Reset(); dst.AppendVector(src) }},
		}
		for _, c := range checks {
			if n := testing.AllocsPerRun(100, c.f); n != 0 {
				t.Errorf("%v %s: %.1f allocations per call, want 0", src.Type, c.name, n)
			}
		}
		_ = view
	}
}

func BenchmarkAppendRows(b *testing.B) {
	const n = 1 << 16
	for _, typ := range []Type{Int, Float, Str} {
		src := MakeVector(typ, n, n)
		rows := make([]int32, n/2)
		for i := range rows {
			rows[i] = int32((i * 7919) % n)
		}
		dst := MakeVector(typ, 0, len(rows))
		b.Run(typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				dst.Reset()
				dst.AppendRows(src, rows)
			}
		})
	}
}
