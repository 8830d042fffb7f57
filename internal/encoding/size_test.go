package encoding

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// sizeVectors derives one vector of each type from fuzz bytes: ints and
// floats read 8 little-endian bytes per value (floats by bit pattern),
// strings split the bytes at each zero byte. Every value is repeated
// repeat+1 times (runs), and no vector exceeds 1,024 values.
func sizeVectors(data []byte, repeat uint8) []*table.Vector {
	const maxLen = 1024
	ints := &table.Vector{Type: table.Int}
	floats := &table.Vector{Type: table.Float}
	strs := &table.Vector{Type: table.Str}
	for off := 0; off+8 <= len(data); off += 8 {
		w := binary.LittleEndian.Uint64(data[off:])
		for k := 0; k <= int(repeat) && len(ints.Ints) < maxLen; k++ {
			ints.Ints = append(ints.Ints, int64(w))
			floats.Floats = append(floats.Floats, math.Float64frombits(w))
		}
	}
	if len(data) > 0 {
		for _, s := range bytes.Split(data, []byte{0}) {
			for k := 0; k <= int(repeat) && len(strs.Strs) < maxLen; k++ {
				strs.Strs = append(strs.Strs, string(s))
			}
		}
	}
	return []*table.Vector{ints, floats, strs}
}

func intBytes(xs ...int64) []byte {
	var out []byte
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, uint64(x))
	}
	return out
}

func floatBytes(fs ...float64) []byte {
	var out []byte
	for _, f := range fs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int64) []int64 {
	var out []int64
	for x := lo; x < hi; x++ {
		out = append(out, x)
	}
	return out
}

// widthSeeds returns fuzz bytes for INT columns that bit-pack at the
// widths the pack and unpack kernels specialise, and at those past them,
// each at 7, 8, 9 and 257 rows (inside, on and past an 8-value group, and
// one whole 256-value block of deltas):
//   - deltas whose widest zig-zag delta has width w, for w in 1, 4, 8,
//     11, 16, 17, 32 and 33;
//   - dictionaries of 2^w and 2^w + 1 entries, codes of width w and w + 1,
//     for w in 1, 4 and 8. A wider dictionary does not fit the 1,024
//     values of sizeVectors; TestPackBitsMatchesReference covers every
//     width directly.
func widthSeeds() [][]byte {
	var out [][]byte
	for _, w := range []int{1, 4, 8, 11, 16, 17, 32, 33} {
		half := int64(1) << (w - 1)
		for _, rows := range []int{7, 8, 9, 257} {
			// A step of -half has zig-zag 2^w - 1; every other step
			// alternates in sign and zig-zags to less.
			xs := make([]int64, rows)
			for i := 1; i < rows; i++ {
				step := -half
				if mag := int64(uint64(i) * 2654435761 % uint64(half)); i > 1 && i%2 == 0 {
					step = mag
				} else if i > 1 {
					step = -mag - 1
				}
				xs[i] = xs[i-1] + step
			}
			out = append(out, intBytes(xs...))
			for _, card := range []int{1 << w, 1<<w + 1} {
				if w > 8 || card > rows {
					continue
				}
				for i := range xs {
					xs[i] = int64(i*7%card) * 1_000_003
				}
				out = append(out, intBytes(xs...))
			}
		}
	}
	return out
}

// FuzzCodecSize requires every codec's size to be exactly the length of
// its Encode, for every type, and to fail exactly when Encode fails. It
// also checks dict's bounded pass: below its limit it is exact, and when it
// stops it reports a lower bound that has reached the limit.
func FuzzCodecSize(f *testing.F) {
	f.Add([]byte{}, uint8(0))                                                    // empty vectors
	f.Add(intBytes(7), uint8(200))                                               // one distinct value: width 0
	f.Add(floatBytes(math.NaN(), 1.5, math.Copysign(0, -1), 0), uint8(0))        // NaN, −0.0
	f.Add(floatBytes(math.Pi, 1e300, 0.1, 2.25, 1.0/3), uint8(1))                // non-decimal and decimal floats
	f.Add(floatBytes(12.34, 12.35, 99.99, -0.01, 4503599627370.5), uint8(3))     // decimal money, scale edges
	f.Add(intBytes(math.MinInt64, math.MaxInt64, math.MinInt64+1, -1), uint8(0)) // wrapping deltas
	f.Add(intBytes(math.MaxInt64-1, math.MaxInt64, math.MinInt64, 0), uint8(2))  // MaxInt64 neighbours
	f.Add(intBytes(1, 1, 2, 2, 2, 3), uint8(255))                                // long runs
	f.Add(intBytes(seq(0, 256)...), uint8(0))                                    // card 2^8: width 8
	f.Add(intBytes(seq(0, 257)...), uint8(0))                                    // card 2^8+1: width 9
	f.Add(intBytes(seq(-2, 2)...), uint8(5))                                     // card 4 = 2^2
	f.Add(intBytes(seq(-2, 3)...), uint8(5))                                     // card 5 = 2^2+1
	f.Add([]byte("a\x00bb\x00a\x00\x00ccc\x00bb"), uint8(2))                     // strings with an empty one
	f.Add(bytes.Repeat([]byte("Books\x00Toys\x00"), 64), uint8(0))               // low-cardinality strings
	f.Add(intBytes(1000, 1003, 1001, 1000, 1007), uint8(4))                      // narrow span: bitset seen-set
	f.Add(intBytes(0, 64*2), uint8(0))                                           // span 64n: just past the bitset
	f.Add(intBytes(0, 64*2-1), uint8(0))                                         // span 64n−1: the widest bitset for n
	f.Add(intBytes(5, 5, 5), uint8(9))                                           // span 0: a one-word bitset
	f.Add(intBytes(math.MinInt64, math.MinInt64+3, math.MinInt64+1), uint8(1))   // narrow span at −2^63
	f.Add(intBytes(math.MaxInt64, math.MaxInt64-2, math.MaxInt64), uint8(1))     // narrow span at 2^63−1
	for _, seed := range widthSeeds() {
		f.Add(seed, uint8(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, repeat uint8) {
		for _, v := range sizeVectors(data, repeat) {
			for _, c := range codecs {
				payload, encErr := c.Encode(v)
				size, sizeErr := c.size(v)
				if (encErr == nil) != (sizeErr == nil) {
					t.Fatalf("%s/%s n=%d: Encode err %v, size err %v", c.ID(), v.Type, v.Len(), encErr, sizeErr)
				}
				if encErr == nil && size != len(payload) {
					t.Fatalf("%s/%s n=%d: size %d, Encode wrote %d bytes", c.ID(), v.Type, v.Len(), size, len(payload))
				}
				if c.ID() != Dict || encErr != nil {
					continue
				}
				for _, limit := range []int{0, 1, size / 2, size, size + 1} {
					got, _ := dictCodec{}.sizeBelow(v, limit)
					if size < limit && got != size || size >= limit && (got < limit || got > size) {
						t.Fatalf("dict/%s n=%d: sizeBelow(%d) = %d, exact size %d", v.Type, v.Len(), limit, got, size)
					}
				}
			}
		}
	})
}

// bestEncodingRef is the selector before codecs could size a payload:
// encode v with every candidate and keep the smallest, the earlier
// candidate on a tie.
func bestEncodingRef(v *table.Vector) (CodecID, []byte) {
	var best CodecID
	var bestPayload []byte
	found := false
	for _, c := range Candidates(v.Type) {
		p, err := c.Encode(v)
		if err != nil {
			continue
		}
		if !found || len(p) < len(bestPayload) {
			best, bestPayload, found = c.ID(), p, true
		}
	}
	return best, bestPayload
}

// encodeChunkSampledRef is encodeChunk's sampled path before codecs could
// size a payload: it ranks the candidates by the length of their encoded
// sample.
func encodeChunkSampledRef(v *table.Vector, sr int) Chunk {
	n := v.Len()
	sample := sampleVec(v, sr)
	type ranked struct {
		c   Codec
		est int
	}
	var cands []ranked
	for _, c := range Candidates(v.Type) {
		p, err := c.Encode(sample)
		if err != nil {
			continue
		}
		cands = append(cands, ranked{c: c, est: len(p) * n / sample.Len()})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].est < cands[j].est })
	for _, r := range cands {
		if payload, err := r.c.Encode(v); err == nil {
			return Chunk{Codec: r.c.ID(), Rows: n, Data: payload}
		}
	}
	payload, _ := codecs[Raw].Encode(v)
	return Chunk{Codec: Raw, Rows: n, Data: payload}
}

// nearTieVector is a low-cardinality int or string column sized so that
// dict's payload lands close to raw's or delta's: the cases where
// dict's bounded pass decides whether it wins.
func nearTieVector(rng *rand.Rand) *table.Vector {
	card := 1 + rng.Intn(64)
	n := 1 + rng.Intn(8*card+8)
	if rng.Intn(2) == 0 {
		v := &table.Vector{Type: table.Int}
		for i := 0; i < n; i++ {
			v.Ints = append(v.Ints, int64(rng.Intn(card)))
		}
		return v
	}
	v := &table.Vector{Type: table.Str}
	for i := 0; i < n; i++ {
		v.Strs = append(v.Strs, string(rune('a'+rng.Intn(card))))
	}
	return v
}

// TestBestEncodingMatchesExhaustive: ranking by size and encoding only the
// winner returns the codec and payload that encoding every candidate does,
// byte for byte — on random vectors of every type and on dict near-ties.
func TestBestEncodingMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	nearTies := 0
	check := func(v *table.Vector) {
		t.Helper()
		wantID, want := bestEncodingRef(v)
		gotID, got, err := bestEncoding(v)
		if err != nil {
			t.Fatalf("%s n=%d: %v", v.Type, v.Len(), err)
		}
		if gotID != wantID || !bytes.Equal(got, want) {
			t.Fatalf("%s n=%d: bestEncoding chose %s (%d bytes), exhaustive %s (%d bytes)",
				v.Type, v.Len(), gotID, len(got), wantID, len(want))
		}
	}
	for trial := 0; trial < 1000; trial++ {
		typ := []table.Type{table.Int, table.Float, table.Str}[trial%3]
		check(genVector(rng, typ, rng.Intn(5000)))
	}
	for trial := 0; trial < 3000; trial++ {
		v := nearTieVector(rng)
		check(v)
		dict, _ := dictCodec{}.size(v)
		for _, c := range Candidates(v.Type) {
			if size, err := c.size(v); err == nil && c.ID() != Dict && size >= dict-1 && size <= dict+1 {
				nearTies++
				break
			}
		}
	}
	if nearTies < 100 {
		t.Fatalf("only %d dict near-ties exercised", nearTies)
	}
}

// TestSampledRankingMatchesEncodedSamples: encodeChunk's sampled path,
// which ranks candidates by size(sample), stores the chunk that ranking by
// len(Encode(sample)) stored.
func TestSampledRankingMatchesEncodedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 600; trial++ {
		typ := []table.Type{table.Int, table.Float, table.Str}[trial%3]
		sr := 8 + rng.Intn(64)
		if trial%10 == 0 {
			sr = sampleRows // what every writer uses
		}
		n := 2*sr + 1 + rng.Intn(3000)
		v := genVector(rng, typ, n)
		got, err := encodeChunk(v, Options{}, sr)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeChunkSampledRef(v, sr)
		if got.Codec != want.Codec || got.Rows != want.Rows || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("%s n=%d sample %d: chose %s (%d bytes), reference %s (%d bytes)",
				typ, n, sr, got.Codec, len(got.Data), want.Codec, len(want.Data))
		}
	}
}

// TestDictSizeSeenSetsAgree: dictSizeBelow returns the same value at every
// limit whether it tracks seen INT values in a bitset over their span or in
// a map — on narrow spans, span 0, spans at the ±2^63 edges and spans at
// both bitset thresholds (64 bits per value, maxSpanBits) and one either
// side — and sizeBelow, which picks the seen-set, returns it too.
func TestDictSizeSeenSetsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var cols [][]int64
	for _, base := range []int64{0, -5000, math.MinInt64, math.MaxInt64 - 5000} {
		for _, span := range []int64{1, 3, 60, 500, 5000} {
			xs := make([]int64, 1+rng.Intn(400))
			for i := range xs {
				xs[i] = base + rng.Int63n(span)
				if i > 0 && rng.Intn(3) == 0 {
					xs[i] = xs[i-1] // runs
				}
			}
			cols = append(cols, xs)
		}
	}
	// spread returns n values whose span is exactly span, the rest random
	// inside it, starting at base.
	spread := func(base int64, n int, span int64) []int64 {
		xs := []int64{base, base + span}
		for len(xs) < n {
			xs = append(xs, base+rng.Int63n(span+1))
		}
		return xs
	}
	cols = append(cols,
		[]int64{7}, []int64{-3, -3, -3}, // span 0
		[]int64{math.MinInt64, math.MinInt64 + 1, math.MinInt64},
		[]int64{math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64},
	)
	for _, d := range []int64{-1, 0, 1} {
		cols = append(cols, spread(-40, 5, 64*5+d), spread(math.MaxInt64-64*9-d, 9, 64*9+d))
		// Enough values that the cap, not 64 bits per value, decides: span
		// maxSpanBits−1 is a bitset exactly at the cap.
		cols = append(cols, spread(0, maxSpanBits/64+int(d)+1, maxSpanBits-1+d))
	}
	for _, xs := range cols {
		lo, hi := slices.Min(xs), slices.Max(xs)
		span := uint64(hi) - uint64(lo)
		_, words, ok := spanWords(xs)
		if want := span < 64*uint64(len(xs)) && span < maxSpanBits; ok != want || ok && words != int(span/64)+1 {
			t.Fatalf("n=%d span=%d: spanWords = %d words, %v", len(xs), span, words, ok)
		}
		exact := dictSizeBelow(xs, varintLen, math.MaxInt, mapSeen[int64]())
		v := &table.Vector{Type: table.Int, Ints: xs}
		limits := []int{0, 1, exact / 2, exact - 1, exact, exact + 1}
		if len(xs) <= 400 {
			limits = limits[:0]
			for limit := 0; limit <= exact+1; limit++ {
				limits = append(limits, limit)
			}
		}
		for _, limit := range limits {
			byMap := dictSizeBelow(xs, varintLen, limit, mapSeen[int64]())
			if span <= 2*maxSpanBits {
				set := make([]uint64, span/64+1)
				if bits := dictSizeBelow(xs, varintLen, limit, bitSeen(lo, set)); bits != byMap {
					t.Fatalf("n=%d span=%d limit=%d: bitset %d, map %d", len(xs), span, limit, bits, byMap)
				}
			}
			if got, _ := (dictCodec{}).sizeBelow(v, limit); got != byMap {
				t.Fatalf("n=%d span=%d limit=%d: sizeBelow %d, map %d", len(xs), span, limit, got, byMap)
			}
		}
	}
}
