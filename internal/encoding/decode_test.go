package encoding

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// decodeCases returns v encoded by every codec: each codec's own Encode
// where it applies, v's RLE payload, and, when v is decimal-exact floats,
// floatdec over each inner INT codec.
func decodeCases(v *table.Vector) []Chunk {
	n := v.Len()
	var out []Chunk
	for _, c := range codecs {
		if p, err := c.Encode(v); err == nil {
			out = append(out, Chunk{Codec: c.ID(), Rows: n, Data: p})
		}
	}
	out = append(out, Chunk{Codec: RLE, Rows: n, Data: rlePayload(v)})
	if scale, iv, err := decimalInts(v); err == nil {
		for _, inner := range []CodecID{Raw, RLE, Dict, Delta} {
			p := rlePayload(iv)
			if inner != RLE {
				if p, err = codecs[inner].Encode(iv); err != nil {
					continue
				}
			}
			out = append(out, Chunk{Codec: FloatDec, Rows: n, Data: append([]byte{byte(scale), byte(inner)}, p...)})
		}
	}
	return out
}

// staleVector returns a vector of type t holding n values, none of them
// what a decode would produce there, with room for capacity.
func staleVector(t table.Type, n, capacity int) *table.Vector {
	v := table.MakeVector(t, 0, capacity)
	for i := 0; i < n; i++ {
		switch t {
		case table.Int:
			v.Ints = append(v.Ints, -7-int64(i))
		case table.Float:
			v.Floats = append(v.Floats, math.Float64frombits(0x7ff8dead0000+uint64(i)))
		default:
			v.Strs = append(v.Strs, "stale")
		}
	}
	return v
}

// checkDecodeInto requires DecodeChunkInto to agree with DecodeChunk on ch
// — into an empty vector, into one holding stale values, into one whose
// spare capacity holds them, and into one of another type — failing
// exactly when it fails;
// and, where the full decode succeeds, every prefix decodeInto appends
// after existing values to be the full decode's prefix, leaving those
// values alone.
func checkDecodeInto(t *testing.T, ch Chunk, typ table.Type) {
	t.Helper()
	want, wantErr := DecodeChunk(ch, typ)
	other := table.Str
	if typ == table.Str {
		other = table.Float
	}
	full := staleVector(typ, ch.Rows+9, ch.Rows+9)
	full.Reset()
	for _, dst := range []*table.Vector{{}, staleVector(typ, 5, 5), full, staleVector(other, 5, 64)} {
		err := DecodeChunkInto(ch, typ, dst)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s/%s rows=%d: DecodeChunkInto err %v, DecodeChunk err %v", ch.Codec, typ, ch.Rows, err, wantErr)
		}
		if err == nil && !vecEqual(want, dst) {
			t.Fatalf("%s/%s rows=%d: DecodeChunkInto differs from DecodeChunk", ch.Codec, typ, ch.Rows)
		}
	}
	if wantErr != nil {
		return
	}
	for _, k := range []int{1, ch.Rows / 2, ch.Rows - 1} {
		if k <= 0 || k >= ch.Rows {
			continue
		}
		dst := staleVector(typ, 3, 3)
		if err := decodeInto(ch, k, dst); err != nil {
			t.Fatalf("%s/%s rows=%d k=%d: prefix decode failed where the full one did not: %v", ch.Codec, typ, ch.Rows, k, err)
		}
		if !vecEqual(slice(dst, 0, 3), staleVector(typ, 3, 3)) || !vecEqual(slice(dst, 3, dst.Len()), slice(want, 0, k)) {
			t.Fatalf("%s/%s rows=%d k=%d: prefix decode is not the full decode's first k rows after the old ones", ch.Codec, typ, ch.Rows, k)
		}
	}
}

// FuzzDecodeInto checks decoding into a caller's vector against decoding
// into a new one, for every codec (raw, dict, delta, floatdec over each
// inner codec, and legacy RLE), on vectors derived from the fuzz bytes and
// on their payloads with one byte flipped (flip != 0) or cut short at pos.
func FuzzDecodeInto(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0), byte(0))
	f.Add(intBytes(7), uint8(200), uint16(0), byte(0))                                       // width-0 dict and delta
	f.Add(intBytes(seq(0, 300)...), uint8(0), uint16(0), byte(0))                            // delta, several unpack blocks
	f.Add(intBytes(seq(-3, 40)...), uint8(9), uint16(3), byte(0x40))                         // dict codes, one flipped
	f.Add(floatBytes(12.34, 12.35, 99.99, -0.01, 7), uint8(60), uint16(0), byte(0))          // floatdec
	f.Add(floatBytes(math.NaN(), math.Copysign(0, -1), 1e300), uint8(2), uint16(0), byte(0)) // raw floats, NaN, −0.0
	f.Add(bytes.Repeat([]byte("Books\x00Toys\x00"), 40), uint8(1), uint16(9), byte(0))       // dict strings, truncated
	f.Add([]byte("a\x00bb\x00\x00ccc\x00"), uint8(0), uint16(5), byte(0x81))                 // raw strings, flipped
	f.Add(intBytes(math.MinInt64, math.MaxInt64, 0, -1), uint8(1), uint16(2), byte(0x7f))    // wrapping deltas
	for _, seed := range widthSeeds() {
		f.Add(seed, uint8(0), uint16(0), byte(0))
	}
	f.Fuzz(func(t *testing.T, data []byte, repeat uint8, pos uint16, flip byte) {
		for _, v := range sizeVectors(data, repeat) {
			for _, ch := range decodeCases(v) {
				if len(ch.Data) > 0 && (flip != 0 || pos != 0) {
					ch.Data = slices.Clone(ch.Data)
					if at := int(pos) % len(ch.Data); flip != 0 {
						ch.Data[at] ^= flip
					} else {
						ch.Data = ch.Data[:at]
					}
				} else if got, err := DecodeChunk(ch, v.Type); err != nil || !vecEqual(got, v) {
					t.Fatalf("%s/%s rows=%d: decoding the payload does not give back the column (err %v)", ch.Codec, v.Type, ch.Rows, err)
				}
				checkDecodeInto(t, ch, v.Type)
			}
		}
	})
}

// allocFreeChunks returns a 4,096-row INT column encoded raw, as deltas
// and as a 200-entry dictionary, with the values each decodes to.
func allocFreeChunks(t testing.TB) (map[CodecID]Chunk, map[CodecID]*table.Vector) {
	const n = 4096
	rng := rand.New(rand.NewSource(5))
	vecs := map[CodecID]*table.Vector{
		Raw:   {Type: table.Int},
		Delta: {Type: table.Int},
		Dict:  {Type: table.Int},
	}
	for i := 0; i < n; i++ {
		vecs[Raw].Ints = append(vecs[Raw].Ints, rng.Int63())
		vecs[Delta].Ints = append(vecs[Delta].Ints, int64(3*i+rng.Intn(5)))
		vecs[Dict].Ints = append(vecs[Dict].Ints, 1e12+int64(rng.Intn(200)))
	}
	chunks := make(map[CodecID]Chunk, len(vecs))
	for id, v := range vecs {
		p, err := codecs[id].Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		chunks[id] = Chunk{Codec: id, Rows: n, Data: p}
	}
	return chunks, vecs
}

// TestDecodeChunkIntoAllocatesNothing: raw, delta and dict INT chunks
// decode into a vector with enough capacity without allocating.
func TestDecodeChunkIntoAllocatesNothing(t *testing.T) {
	chunks, vecs := allocFreeChunks(t)
	for id, ch := range chunks {
		dst := table.MakeVector(table.Int, 0, ch.Rows)
		var err error
		allocs := testing.AllocsPerRun(20, func() { err = DecodeChunkInto(ch, table.Int, dst) })
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !vecEqual(dst, vecs[id]) {
			t.Fatalf("%s: decoded values differ", id)
		}
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per decode into enough capacity, want 0", id, allocs)
		}
	}
}

// BenchmarkDecodeChunkInto decodes 65,536-row chunks of each codec into
// one reused vector.
func BenchmarkDecodeChunkInto(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(9))
	cases := []struct {
		name string
		v    *table.Vector
		id   CodecID
	}{
		{"raw", &table.Vector{Type: table.Int}, Raw},
		{"delta", &table.Vector{Type: table.Int}, Delta},
		{"dict", &table.Vector{Type: table.Int}, Dict},
		{"floatdec", &table.Vector{Type: table.Float}, FloatDec},
	}
	for i := 0; i < n; i++ {
		cases[0].v.Ints = append(cases[0].v.Ints, rng.Int63())
		cases[1].v.Ints = append(cases[1].v.Ints, int64(7*i+rng.Intn(100)))
		cases[2].v.Ints = append(cases[2].v.Ints, int64(rng.Intn(3000)))
		cases[3].v.Floats = append(cases[3].v.Floats, float64(rng.Intn(1_000_000))/100)
	}
	for _, c := range cases {
		p, err := codecs[c.id].Encode(c.v)
		if err != nil {
			b.Fatal(err)
		}
		ch := Chunk{Codec: c.id, Rows: n, Data: p}
		b.Run(c.name, func(b *testing.B) {
			dst := &table.Vector{}
			b.SetBytes(8 * n)
			b.ReportAllocs()
			for b.Loop() {
				if err := DecodeChunkInto(ch, c.v.Type, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
