package chunkio

import (
	"testing"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

// FuzzBuilder derives a table, a chunk layout, a selection and a builder
// configuration from the fuzz input, drives the source chunks through the
// builder's append paths — in bulk and value by value — and requires byte-identical outputs that decode to a
// direct gather of the selected rows. It hunts for row drops, code/value
// space transitions that lose data, misaligned chunk boundaries, dictionary
// overflow corruption and any way the bulk append departs from appending
// one value at a time.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{1, 40, 8, 3, 0xAA, 0x55, 16, 2})
	f.Add([]byte{2, 200, 64, 1, 0xFF, 0x00, 4, 0})
	f.Add([]byte{3, 13, 1, 30, 0x0F, 0xF0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		nCols := 1 + int(data[0]%3)
		n := int(data[1])
		chunkRows := 1 + int(data[2])
		card := 1 + int(data[3])
		target := 1 + int(data[6])
		maxEntries := int(data[7])
		if maxEntries == 0 {
			maxEntries = DefaultMaxEntries
		}
		sel := data[8:]

		types := []table.Type{table.Int, table.Str, table.Float}
		cols := make([]table.Column, nCols)
		for c := range cols {
			cols[c] = table.Column{Name: string(rune('a' + c)), Type: types[(int(data[0])+c)%3]}
		}
		tb := table.New(table.NewSchema(cols...))
		for r := 0; r < n; r++ {
			for c := range cols {
				// Values derived from the input bytes, modulo a cardinality
				// that decides which codecs the auto-selector picks.
				x := int(data[(r+c*7)%len(data)]) % card
				switch cols[c].Type {
				case table.Int:
					tb.Cols[c].Ints = append(tb.Cols[c].Ints, int64(x))
				case table.Float:
					tb.Cols[c].Floats = append(tb.Cols[c].Floats, float64(x)/4)
				default:
					tb.Cols[c].Strs = append(tb.Cols[c].Strs, string(byte('A'+x%26)))
				}
			}
		}
		ct, err := encoding.FromTable(tb, encoding.Options{ChunkRows: chunkRows})
		if err != nil {
			t.Fatalf("FromTable: %v", err)
		}
		global := []int{}
		var sels [][]int32
		base := 0
		for g, rows := range ct.RowGroups() {
			pass := len(sel) > 0 && sel[g%len(sel)]&1 != 0
			if pass {
				sels = append(sels, nil)
				for i := 0; i < rows; i++ {
					global = append(global, base+i)
				}
			} else {
				idxs := []int32{}
				for i := 0; i < rows; i++ {
					bit := 0
					if len(sel) > 0 {
						bit = int(sel[(base+i)/8%len(sel)] >> uint((base+i)%8) & 1)
					}
					if bit == 1 {
						idxs = append(idxs, int32(i))
						global = append(global, base+i)
					}
				}
				sels = append(sels, idxs)
			}
			base += rows
		}
		checkBuilds(t, "fuzz", tb, ct, sels, global, encoding.Options{ChunkRows: target}, maxEntries)
	})
}
