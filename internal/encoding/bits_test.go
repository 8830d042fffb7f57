package encoding

import (
	"bytes"
	"fmt"
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

	// Every width, through the kernels where it has one: packed streams of
	// every length up to 80 values, cut to their exact byte length so the
	// last groups fall in a tail shorter than a kernel's words, read from
	// every first in 0–16 with ranges that end inside a group, on a group
	// boundary and at the stream's end.
	for width := 0; width <= 64; width++ {
		vals := make([]uint64, 80)
		for i := range vals {
			vals[i] = rng.Uint64() >> uint(64-width)
			if width == 0 {
				vals[i] = 0
			}
		}
		for n := 0; n <= len(vals); n++ {
			packed := packBitsRef(vals[:n], width)
			if got := appendPacked(nil, vals[:n], width); !bytes.Equal(got, packed) {
				t.Fatalf("width %d n %d: packed bytes differ\ngot  %x\nwant %x", width, n, got, packed)
			}
			ref := unpackBitsRef(packed, width, n)
			for first := 0; first <= min(16, n); first++ {
				for _, count := range []int{1, 7, 8, 9, 16, 17, n - first} {
					if count > n-first {
						continue
					}
					dst := make([]uint64, count)
					unpackRange(packed, width, first, dst)
					for i, v := range dst {
						if v != ref[first+i] {
							t.Fatalf("width %d n %d first %d count %d: value %d is %#x, want %#x",
								width, n, first, count, first+i, v, ref[first+i])
						}
					}
				}
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

// benchWidths are the widths a compressed refresh unpacks most (4, 11,
// 16, 17) and one without a kernel (40).
var benchWidths = []int{4, 11, 16, 17, 40}

// benchValues returns 65,536 random values of width bits.
func benchValues(width int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = rng.Uint64() >> uint(64-width)
	}
	return vals
}

func BenchmarkAppendPacked(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			vals := benchValues(width)
			buf := make([]byte, 0, packedLen(len(vals), width))
			b.SetBytes(int64(len(vals) * 8))
			for b.Loop() {
				appendPacked(buf, vals, width)
			}
		})
	}
}

// BenchmarkUnpackRange reads 65,536 packed values 256 at a time, the
// block the dict and delta decoders unpack.
func BenchmarkUnpackRange(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			vals := benchValues(width)
			packed := appendPacked(nil, vals, width)
			var block [256]uint64
			b.SetBytes(int64(len(vals) * 8))
			for b.Loop() {
				for first := 0; first < len(vals); first += len(block) {
					unpackRange(packed, width, first, block[:])
				}
			}
		})
	}
}

func BenchmarkUnpackBits(b *testing.B) {
	const width = 16
	vals := benchValues(width)
	packed := appendPacked(nil, vals, width)
	b.SetBytes(int64(len(vals) * 8))
	for b.Loop() {
		if _, err := unpackBits(packed, width, len(vals)); err != nil {
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
	ch := Chunk{Codec: Delta, Rows: len(v.Ints), Data: payload}
	dst := &table.Vector{}
	b.SetBytes(int64(len(v.Ints) * 8))
	for b.Loop() {
		if err := DecodeChunkInto(ch, table.Int, dst); err != nil {
			b.Fatal(err)
		}
	}
}
