package encoding

import (
	"math"
	"math/rand"
	"testing"

	"github.com/shortcircuit-db/sc/internal/table"
)

// slice returns a view of rows [i, j) of v.
func slice(v *table.Vector, i, j int) *table.Vector {
	s := v.Slice(i, j)
	return &s
}

// vecEqual compares vectors bit-exactly (floats by bit pattern, so NaN
// payloads count).
func vecEqual(a, b *table.Vector) bool {
	if a.Type != b.Type || a.Len() != b.Len() {
		return false
	}
	switch a.Type {
	case table.Int:
		for i := range a.Ints {
			if a.Ints[i] != b.Ints[i] {
				return false
			}
		}
	case table.Float:
		for i := range a.Floats {
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				return false
			}
		}
	default:
		for i := range a.Strs {
			if a.Strs[i] != b.Strs[i] {
				return false
			}
		}
	}
	return true
}

// decodeWith decodes an n-row payload of codec c into a new vector.
func decodeWith(c Codec, payload []byte, typ table.Type, n int) (*table.Vector, error) {
	return DecodeChunk(Chunk{Codec: c.ID(), Rows: n, Data: payload}, typ)
}

// genVector builds a random vector with shape biased toward the regimes
// the codecs target: runs, low cardinality, sortedness, decimal floats.
func genVector(rng *rand.Rand, typ table.Type, n int) *table.Vector {
	v := &table.Vector{Type: typ}
	shape := rng.Intn(4) // 0 random, 1 runny, 2 low-cardinality, 3 sorted/decimal
	switch typ {
	case table.Int:
		cur := rng.Int63n(1000)
		for i := 0; i < n; i++ {
			switch shape {
			case 0:
				cur = rng.Int63() - rng.Int63()
			case 1:
				if rng.Intn(4) == 0 {
					cur = rng.Int63n(50)
				}
			case 2:
				cur = int64(rng.Intn(8))
			default:
				cur += rng.Int63n(3)
			}
			v.Ints = append(v.Ints, cur)
		}
	case table.Float:
		for i := 0; i < n; i++ {
			switch shape {
			case 0:
				v.Floats = append(v.Floats, rng.NormFloat64()*1e6)
			case 1:
				v.Floats = append(v.Floats, float64(rng.Intn(3)))
			case 2:
				v.Floats = append(v.Floats, math.NaN())
			default:
				v.Floats = append(v.Floats, float64(rng.Intn(20000)+100)/100)
			}
		}
	default:
		words := []string{"", "a", "Books", "Electronics", "Toys", "x"}
		for i := 0; i < n; i++ {
			switch shape {
			case 0:
				b := make([]byte, rng.Intn(12))
				rng.Read(b)
				v.Strs = append(v.Strs, string(b))
			default:
				v.Strs = append(v.Strs, words[rng.Intn(len(words))])
			}
		}
	}
	return v
}

// TestCodecRoundTripProperty round-trips every codec against every type it
// supports, across random vectors of varying shapes and sizes, demanding
// bit-identical output.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	types := []table.Type{table.Int, table.Float, table.Str}
	for _, typ := range types {
		for _, c := range Candidates(typ) {
			for trial := 0; trial < 40; trial++ {
				n := rng.Intn(300)
				v := genVector(rng, typ, n)
				payload, err := c.Encode(v)
				if err != nil {
					// Value-dependent preconditions (floatdec) may reject;
					// that is allowed, silent corruption is not.
					continue
				}
				got, err := decodeWith(c, payload, typ, n)
				if err != nil {
					t.Fatalf("%s/%s n=%d: decode: %v", c.ID(), typ, n, err)
				}
				if !vecEqual(v, got) {
					t.Fatalf("%s/%s n=%d: round trip not identical", c.ID(), typ, n)
				}
			}
		}
	}
}

// TestDecodeHeadIsAPrefixOfDecode: for every codec and type, the first k
// rows decodeInto appends are bit-identical to the first k of the full
// decode, at k = 1, the middle, and n-1 and n.
func TestDecodeHeadIsAPrefixOfDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, typ := range []table.Type{table.Int, table.Float, table.Str} {
		for _, c := range Candidates(typ) {
			for trial := 0; trial < 40; trial++ {
				n := 2 + rng.Intn(300)
				v := genVector(rng, typ, n)
				payload, err := c.Encode(v)
				if err != nil {
					continue // floatdec may reject the values
				}
				ch := Chunk{Codec: c.ID(), Rows: n, Data: payload}
				for _, k := range []int{1, n / 2, n - 1, n} {
					got := &table.Vector{Type: typ}
					if err := decodeInto(ch, k, got); err != nil {
						t.Fatalf("%s/%s n=%d k=%d: %v", c.ID(), typ, n, k, err)
					}
					if !vecEqual(slice(v, 0, k), got) {
						t.Fatalf("%s/%s n=%d k=%d: not the first k rows", c.ID(), typ, n, k)
					}
				}
			}
		}
	}
}

// TestHeadTable reads the first n rows of a table whose columns chunk at
// different boundaries: exactly n rows, equal to the full decode's first n,
// and everything for n <= 0 or n >= NRows.
func TestHeadTable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows = 300
	full := &table.Table{Schema: table.NewSchema(
		table.Column{Name: "i", Type: table.Int},
		table.Column{Name: "f", Type: table.Float},
		table.Column{Name: "s", Type: table.Str},
	)}
	for _, c := range full.Schema.Cols {
		full.Cols = append(full.Cols, genVector(rng, c.Type, rows))
	}
	ct, err := FromTable(full, Options{ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := FromTable(full, Options{ChunkRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	ct.Cols[0] = wide.Cols[0]
	for _, n := range []int{-1, 0, 1, 63, 64, 65, 100, 101, rows - 1, rows, rows + 1} {
		got, err := ct.HeadTable(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := rows
		if n > 0 && n < rows {
			want = n
		}
		if got.NumRows() != want {
			t.Fatalf("n=%d: %d rows, want %d", n, got.NumRows(), want)
		}
		for ci, col := range got.Cols {
			if !vecEqual(slice(full.Cols[ci], 0, want), col) {
				t.Fatalf("n=%d: column %d is not the table's first %d rows", n, ci, want)
			}
		}
	}
}

// TestEveryCodecCoversItsTypes pins the applicability matrix. RLE is
// decode-only, so it encodes no type.
func TestEveryCodecCoversItsTypes(t *testing.T) {
	want := map[CodecID][]table.Type{
		Raw:      {table.Int, table.Float, table.Str},
		RLE:      nil,
		Dict:     {table.Int, table.Str},
		Delta:    {table.Int},
		FloatDec: {table.Float},
	}
	for id, typs := range want {
		c, err := ByID(id)
		if err != nil {
			t.Fatalf("ByID(%s): %v", id, err)
		}
		covered := map[table.Type]bool{}
		for _, typ := range typs {
			covered[typ] = true
			if !c.CanEncode(typ) {
				t.Errorf("%s should encode %s", id, typ)
			}
		}
		for _, typ := range []table.Type{table.Int, table.Float, table.Str} {
			if !covered[typ] && c.CanEncode(typ) {
				t.Errorf("%s should not encode %s", id, typ)
			}
		}
	}
}

func TestByIDRejectsUnknown(t *testing.T) {
	if _, err := ByID(numCodecs); err == nil {
		t.Fatal("ByID accepted unknown codec")
	}
}

func TestFloatDecExactness(t *testing.T) {
	c := codecs[FloatDec]
	// Money values constructed as i/100 are exactly recoverable.
	v := &table.Vector{Type: table.Float}
	for i := 0; i < 500; i++ {
		v.Floats = append(v.Floats, float64(i*7+100)/100)
	}
	payload, err := c.Encode(v)
	if err != nil {
		t.Fatalf("encode decimal column: %v", err)
	}
	got, err := decodeWith(c, payload, table.Float, v.Len())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !vecEqual(v, got) {
		t.Fatal("floatdec round trip not bit-identical")
	}
	if len(payload) >= v.Len()*8 {
		t.Fatalf("floatdec did not compress: %d bytes for %d floats", len(payload), v.Len())
	}
	// Irrational-ish values must be rejected, not corrupted.
	bad := &table.Vector{Type: table.Float, Floats: []float64{math.Pi, math.Sqrt2}}
	if _, err := c.Encode(bad); err == nil {
		t.Fatal("floatdec accepted non-decimal column")
	}
	nan := &table.Vector{Type: table.Float, Floats: []float64{1, math.NaN()}}
	if _, err := c.Encode(nan); err == nil {
		t.Fatal("floatdec accepted NaN")
	}
}

func TestDeltaCompressesSerialKeys(t *testing.T) {
	v := &table.Vector{Type: table.Int}
	for i := int64(0); i < 10000; i++ {
		v.Ints = append(v.Ints, 2450000+i)
	}
	payload, err := codecs[Delta].Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	// Serial keys have delta 1: ~2 bits/row after zigzag.
	if len(payload) > 10000 {
		t.Fatalf("delta on serial keys took %d bytes for 10000 rows", len(payload))
	}
}

func TestDictCompressesLowCardinality(t *testing.T) {
	v := &table.Vector{Type: table.Str}
	cats := []string{"Books", "Electronics", "Home", "Jewelry"}
	for i := 0; i < 8000; i++ {
		v.Strs = append(v.Strs, cats[i%len(cats)])
	}
	payload, err := codecs[Dict].Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	// 4 entries → 2 bits/row plus the dictionary block.
	if len(payload) > 8000/4+100 {
		t.Fatalf("dict took %d bytes for 8000 low-cardinality rows", len(payload))
	}
}

func TestFromTableRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		tab := table.New(table.NewSchema(
			table.Column{Name: "k", Type: table.Int},
			table.Column{Name: "price", Type: table.Float},
			table.Column{Name: "cat", Type: table.Str},
		))
		n := rng.Intn(500)
		tab.Cols[0] = genVector(rng, table.Int, n)
		tab.Cols[1] = genVector(rng, table.Float, n)
		tab.Cols[2] = genVector(rng, table.Str, n)
		for k, opts := range []Options{{}, {Mode: ModeRaw}, {ChunkRows: 64}} {
			sr := sampleRows
			if k == 2 {
				sr = 16 // 64-row chunks take the sampled path
			}
			ct, err := fromTable(tab, opts, sr)
			if err != nil {
				t.Fatalf("FromTable: %v", err)
			}
			got, err := ct.Table()
			if err != nil {
				t.Fatalf("Table: %v", err)
			}
			if got.NumRows() != n || !got.Schema.Equal(tab.Schema) {
				t.Fatalf("round trip changed shape")
			}
			for c := range tab.Cols {
				if !vecEqual(tab.Cols[c], got.Cols[c]) {
					t.Fatalf("opts=%+v column %d differs after round trip", opts, c)
				}
			}
		}
	}
}

func TestFromTableChunksColumns(t *testing.T) {
	tab := table.New(table.NewSchema(table.Column{Name: "k", Type: table.Int}))
	for i := int64(0); i < 1000; i++ {
		tab.Cols[0].Ints = append(tab.Cols[0].Ints, i)
	}
	ct, err := FromTable(tab, Options{ChunkRows: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Cols[0]) != 4 {
		t.Fatalf("want 4 chunks of ≤300 rows, got %d", len(ct.Cols[0]))
	}
	if ct.NRows != 1000 {
		t.Fatalf("NRows = %d", ct.NRows)
	}
}

func TestCompressedFootprintSmallerThanRaw(t *testing.T) {
	tab := table.New(table.NewSchema(
		table.Column{Name: "k", Type: table.Int},
		table.Column{Name: "cat", Type: table.Str},
	))
	cats := []string{"Books", "Electronics", "Home"}
	for i := int64(0); i < 20000; i++ {
		tab.Cols[0].Ints = append(tab.Cols[0].Ints, i)
		tab.Cols[1].Strs = append(tab.Cols[1].Strs, cats[i%3])
	}
	auto, err := FromTable(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FromTable(tab, Options{Mode: ModeRaw})
	if err != nil {
		t.Fatal(err)
	}
	if auto.SizeBytes()*4 > raw.SizeBytes() {
		t.Fatalf("auto %d bytes vs raw %d: expected ≥4x on serial keys + categories",
			auto.SizeBytes(), raw.SizeBytes())
	}
	if auto.Ratio() < 4 {
		t.Fatalf("Ratio() = %.2f, want ≥4", auto.Ratio())
	}
}

func TestEmptyTable(t *testing.T) {
	tab := table.New(table.NewSchema(table.Column{Name: "k", Type: table.Int}))
	ct, err := FromTable(tab, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ct.Table()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 0 {
		t.Fatalf("rows = %d", got.NumRows())
	}
}

func TestValidateCatchesBadChunks(t *testing.T) {
	ct := &Compressed{
		Schema: table.NewSchema(table.Column{Name: "k", Type: table.Int}),
		NRows:  10,
		Cols:   [][]Chunk{{{Codec: Raw, Rows: 4, Data: nil}}},
	}
	if err := ct.Validate(); err == nil {
		t.Fatal("Validate accepted chunk rows not summing to NRows")
	}
	ct.Cols[0][0].Rows = 10
	ct.Cols[0][0].Codec = numCodecs
	if err := ct.Validate(); err == nil {
		t.Fatal("Validate accepted unknown codec")
	}
}

// TestDictRejectsEmptyDictForRows: a dict payload with zero entries but a
// nonzero claimed row count must fail before allocating the output — no
// index could ever reference a value.
func TestDictRejectsEmptyDictForRows(t *testing.T) {
	// uvarint(0) entries, width 0: claims any n for free.
	payload := []byte{0, 0}
	for _, typ := range []table.Type{table.Int, table.Str} {
		if _, err := decodeWith(codecs[Dict], payload, typ, 1<<30); err == nil {
			t.Fatalf("%s: empty dict decoded %d rows without error", typ, 1<<30)
		}
	}
	// Zero rows with an empty dict stays valid.
	if _, err := decodeWith(codecs[Dict], payload, table.Int, 0); err != nil {
		t.Fatalf("empty dict for empty column: %v", err)
	}
}

// viewVector expands the structural view of a Dict chunk — what the
// kernels read — into a vector; ok is false for the other codecs.
func viewVector(ch Chunk, typ table.Type) (vec *table.Vector, ok bool, err error) {
	if ch.Codec != Dict {
		return nil, false, nil
	}
	dv, err := ParseDict(ch, typ)
	if err != nil {
		return nil, true, err
	}
	codes, err := dv.Codes()
	if err != nil {
		return nil, true, err
	}
	vec = &table.Vector{Type: typ}
	for _, c := range codes {
		_ = vec.Append(dv.Value(int(c)))
	}
	return vec, true, nil
}

// TestDecodeNeverPanicsOnCorruption mutates valid payloads — random byte
// damage, every truncation, every single-bit flip — and checks that every
// codec, the decode-only RLE included, fails cleanly instead of panicking
// or looping, and that the row path (DecodeChunk) and the kernels' view
// (ParseDict) of a damaged Dict payload fail together or agree value for
// value.
func TestDecodeNeverPanicsOnCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 200
	for _, typ := range []table.Type{table.Int, table.Float, table.Str} {
		for _, c := range append(Candidates(typ), codecs[RLE]) {
			check := func(mut []byte) {
				t.Helper()
				ch := Chunk{Codec: c.ID(), Rows: n, Data: mut}
				got, err := DecodeChunk(ch, typ)
				if err == nil && got.Len() != n {
					t.Fatalf("%s/%s: corrupt decode returned %d values without error", c.ID(), typ, got.Len())
				}
				view, ok, verr := viewVector(ch, typ)
				if !ok {
					return
				}
				if (err == nil) != (verr == nil) {
					t.Fatalf("%s/%s: row path err=%v, view err=%v on the same payload", c.ID(), typ, err, verr)
				}
				if err == nil && !vecEqual(got, view) {
					t.Fatalf("%s/%s: row path and view decode the same payload differently", c.ID(), typ)
				}
			}
			v := genVector(rng, typ, n)
			payload, err := c.Encode(v)
			if c.ID() == RLE {
				payload, err = rlePayload(v), nil
			}
			if err != nil || len(payload) == 0 {
				continue
			}
			for trial := 0; trial < 300; trial++ {
				mut := append([]byte(nil), payload...)
				for k := 0; k < 1+rng.Intn(4); k++ {
					mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
				}
				if rng.Intn(3) == 0 {
					mut = mut[:rng.Intn(len(mut))]
				}
				check(mut)
			}
			for cut := 0; cut < len(payload); cut++ {
				check(payload[:cut])
			}
			for bit := 0; bit < 8*min(len(payload), 256); bit++ {
				mut := append([]byte(nil), payload...)
				mut[bit/8] ^= 1 << (bit % 8)
				check(mut)
			}
		}
	}
}
