package encoding

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// packBitsRef is the original bit-by-bit implementation, kept as the
// reference the word-at-a-time variants are verified against.
func packBitsRef(vals []uint64, width int) []byte {
	if width == 0 {
		return nil
	}
	out := make([]byte, (len(vals)*width+7)/8)
	bit := 0
	for _, v := range vals {
		for b := 0; b < width; b++ {
			if v&(1<<uint(b)) != 0 {
				out[bit>>3] |= 1 << uint(bit&7)
			}
			bit++
		}
	}
	return out
}

func unpackBitsRef(data []byte, width, n int) []uint64 {
	if width == 0 {
		return make([]uint64, n)
	}
	out := make([]uint64, n)
	bit := 0
	for i := range out {
		var v uint64
		for b := 0; b < width; b++ {
			if data[bit>>3]&(1<<uint(bit&7)) != 0 {
				v |= 1 << uint(b)
			}
			bit++
		}
		out[i] = v
	}
	return out
}

func TestPackBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		width := rng.Intn(65)
		n := rng.Intn(200)
		vals := make([]uint64, n)
		var mask uint64
		if width > 0 {
			mask = ^uint64(0) >> uint(64-width)
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		// Packed after a prefix, and split into calls of 64 values.
		got := appendPacked([]byte{0xab}, vals, width)[1:]
		want := packBitsRef(vals, width)
		if !bytes.Equal(got, want) {
			t.Fatalf("width %d n %d: packed bytes differ\ngot  %x\nwant %x", width, n, got, want)
		}
		var split []byte
		for lo := 0; lo < n; lo += 64 {
			split = appendPacked(split, vals[lo:min(lo+64, n)], width)
		}
		if !bytes.Equal(split, want) {
			t.Fatalf("width %d n %d: split packing differs", width, n)
		}
		back, err := unpackBits(got, width, n)
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		ref := unpackBitsRef(want, width, n)
		for i := range back {
			if back[i] != vals[i] || back[i] != ref[i] {
				t.Fatalf("width %d: value %d round-tripped to %d (ref %d), want %d",
					width, i, back[i], ref[i], vals[i])
			}
		}
	}
}

func TestUnpackBitsTruncated(t *testing.T) {
	vals := []uint64{1, 2, 3, 4, 5}
	packed := appendPacked(nil, vals, 3)
	if _, err := unpackBits(packed[:1], 3, len(vals)); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func BenchmarkAppendPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = rng.Uint64() & 0xFFF
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		appendPacked(nil, vals, 12)
	}
}

func BenchmarkUnpackBits(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = rng.Uint64() & 0xFFF
	}
	packed := appendPacked(nil, vals, 12)
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unpackBits(packed, 12, len(vals)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	v := &table.Vector{Type: table.Int, Ints: make([]int64, 1<<16)}
	for i := 1; i < len(v.Ints); i++ {
		v.Ints[i] = v.Ints[i-1] + rng.Int63n(1000)
	}
	payload, err := deltaCodec{}.Encode(v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(v.Ints) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeChunk(Chunk{Codec: Delta, Rows: len(v.Ints), Data: payload}, table.Int); err != nil {
			b.Fatal(err)
		}
	}
}
