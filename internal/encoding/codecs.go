package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"github.com/shortcircuit-db/sc/internal/table"
)

// --- bit packing ---

// packBits packs each value's low `width` bits into an LSB-first bitstream.
// Values are folded into a 64-bit accumulator and flushed a word at a time,
// which is ~10x faster than the bit-by-bit loop it replaced on hot columns.
func packBits(vals []uint64, width int) []byte {
	if width == 0 {
		return nil
	}
	total := len(vals) * width
	// Round the buffer up to whole words so every flush (including the
	// final partial one) can write 8 bytes; the slice is trimmed at return.
	buf := make([]byte, (total+63)/64*8)
	mask := ^uint64(0) >> uint(64-width)
	var acc uint64
	accBits, off := 0, 0
	for _, v := range vals {
		v &= mask
		acc |= v << uint(accBits)
		accBits += width
		if accBits >= 64 {
			binary.LittleEndian.PutUint64(buf[off:], acc)
			off += 8
			accBits -= 64
			// Shifting by 64 yields 0 in Go, so width == accBits-0 == 64
			// (exactly consumed) leaves acc empty as required.
			acc = v >> uint(width-accBits)
		}
	}
	if accBits > 0 {
		binary.LittleEndian.PutUint64(buf[off:], acc)
	}
	return buf[:packedLen(len(vals), width)]
}

// unpackBits reads n values of `width` bits from an LSB-first bitstream.
// The payload-length check runs before any allocation, so a corrupted row
// count claiming billions of packed values fails in O(1) instead of
// attempting a huge make().
func unpackBits(data []byte, width, n int) ([]uint64, error) {
	if width == 0 {
		return make([]uint64, n), nil
	}
	if err := packedFits(data, width, n); err != nil {
		return nil, err
	}
	out := make([]uint64, n)
	unpackRange(data, width, 0, out)
	return out, nil
}

// packedFits reports whether data holds n packed values of width bits.
func packedFits(data []byte, width, n int) error {
	if need := packedLen(n, width); len(data) < need {
		return fmt.Errorf("%w: %d packed bytes, need %d", ErrCorrupt, len(data), need)
	}
	return nil
}

// unpackRange fills dst with the width-bit values (0 < width <= 64) of an
// LSB-first bitstream starting at value index first. Each value comes from
// one 64-bit load, or two near the buffer tail or for widths > 57, instead
// of bit by bit. It is the one reader of the bit-packed layout: unpackBits
// fills a whole column with it, and the delta decoder a block at a time.
func unpackRange(data []byte, width, first int, dst []uint64) {
	mask := ^uint64(0) >> uint(64-width)
	bit := first * width
	i := 0
	if width <= 57 {
		// A value this narrow never straddles the word it starts in, so
		// while a whole word remains it takes one plain load.
		for ; i < len(dst) && bit>>3+8 <= len(data); i++ {
			dst[i] = binary.LittleEndian.Uint64(data[bit>>3:]) >> uint(bit&7) & mask
			bit += width
		}
	}
	for ; i < len(dst); i++ {
		off := bit >> 3
		shift := uint(bit & 7)
		v := loadWord(data, off) >> shift
		if rem := 64 - int(shift); rem < width {
			// The value straddles the first 8 bytes: splice in the
			// remaining low bits from the following word.
			v |= loadWord(data, off+8) << uint(rem)
		}
		dst[i] = v & mask
		bit += width
	}
}

// loadWord reads up to 8 little-endian bytes at off, zero-padding past the
// end of the buffer.
func loadWord(data []byte, off int) uint64 {
	if off+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[off:])
	}
	var w uint64
	for b := len(data) - 1; b >= off; b-- {
		w = w<<8 | uint64(data[b])
	}
	return w
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintLen returns the serialized size of v as a binary.PutVarint varint
// (which zig-zags like zigzag above).
func varintLen(v int64) int { return uvarintLen(zigzag(v)) }

// strLen returns the serialized size of s as a length-prefixed string.
func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// packedLen returns the bytes packBits emits for n values of width bits.
func packedLen(n, width int) int { return (n*width + 7) / 8 }

// maxWidth returns the bit width needed for the largest value.
func maxWidth(vals []uint64) int {
	w := 0
	for _, v := range vals {
		if l := bits.Len64(v); l > w {
			w = l
		}
	}
	return w
}

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(buf, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendVarint(buf []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(buf, tmp[:binary.PutVarint(tmp[:], v)]...)
}

// readString reads one length-prefixed string at off, returning it and the
// offset past it.
func readString(payload []byte, off int) (string, int, error) {
	l, k := binary.Uvarint(payload[off:])
	if k <= 0 {
		return "", 0, fmt.Errorf("%w: bad string length", ErrCorrupt)
	}
	off += k
	if l > uint64(len(payload)-off) {
		return "", 0, fmt.Errorf("%w: string overruns payload", ErrCorrupt)
	}
	return string(payload[off : off+int(l)]), off + int(l), nil
}

// --- raw codec ---

// rawCodec is the type-native fallback: 8-byte little-endian ints and
// floats, length-prefixed strings. It applies to every column and is what
// "compression disabled" (ModeRaw) writes.
type rawCodec struct{}

func (rawCodec) ID() CodecID               { return Raw }
func (rawCodec) CanEncode(table.Type) bool { return true }

func (rawCodec) Encode(v *table.Vector) ([]byte, error) {
	switch v.Type {
	case table.Int:
		buf := make([]byte, len(v.Ints)*8)
		for i, x := range v.Ints {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
		}
		return buf, nil
	case table.Float:
		buf := make([]byte, len(v.Floats)*8)
		for i, x := range v.Floats {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
		}
		return buf, nil
	default:
		var buf []byte
		for _, s := range v.Strs {
			buf = appendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		return buf, nil
	}
}

func (rawCodec) size(v *table.Vector) (int, error) {
	if v.Type != table.Str {
		return 8 * v.Len(), nil
	}
	n := 0
	for _, s := range v.Strs {
		n += strLen(s)
	}
	return n, nil
}

func (rawCodec) Decode(payload []byte, t table.Type, n int) (*table.Vector, error) {
	out := &table.Vector{Type: t}
	switch t {
	case table.Int:
		if len(payload) != n*8 {
			return nil, fmt.Errorf("%w: %d raw int bytes, want %d", ErrCorrupt, len(payload), n*8)
		}
		out.Ints = make([]int64, n)
		for i := range out.Ints {
			out.Ints[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	case table.Float:
		if len(payload) != n*8 {
			return nil, fmt.Errorf("%w: %d raw float bytes, want %d", ErrCorrupt, len(payload), n*8)
		}
		out.Floats = make([]float64, n)
		for i := range out.Floats {
			out.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
		}
	default:
		out.Strs = make([]string, 0, allocHint(n, len(payload)))
		for off := 0; off < len(payload); {
			var str string
			var err error
			if str, off, err = readString(payload, off); err != nil {
				return nil, err
			}
			out.Strs = append(out.Strs, str)
		}
		if len(out.Strs) != n {
			return nil, fmt.Errorf("%w: %d strings, want %d", ErrCorrupt, len(out.Strs), n)
		}
	}
	return out, nil
}

// --- run-length codec ---

// rleCodec reads (runLength, value) pairs, float runs compared by bit
// pattern. It is decode-only: no writer picks it, and it stays so that the
// RLE chunks older stores hold (a float run of NaNs included) still open.
type rleCodec struct{}

func (rleCodec) ID() CodecID               { return RLE }
func (rleCodec) CanEncode(table.Type) bool { return false }

// errRLEDecodeOnly is what the write side of rleCodec answers.
var errRLEDecodeOnly = fmt.Errorf("%w: rle is decode-only", ErrUnsupported)

func (rleCodec) Encode(*table.Vector) ([]byte, error) { return nil, errRLEDecodeOnly }
func (rleCodec) size(*table.Vector) (int, error)      { return 0, errRLEDecodeOnly }

func (rleCodec) Decode(payload []byte, t table.Type, n int) (*table.Vector, error) {
	// The output length is known up front; preallocate it, capped so a
	// direct call with an absurd n cannot demand a huge make() before the
	// payload is parsed (the colfmt path already bounds n via Validate).
	out := table.MakeVector(t, 0, allocHint(n, MaxChunkRows))
	err := readRuns(payload, t, n, func(runLen int, v table.Value) {
		switch t {
		case table.Int:
			for ; runLen > 0; runLen-- {
				out.Ints = append(out.Ints, v.I)
			}
		case table.Float:
			for ; runLen > 0; runLen-- {
				out.Floats = append(out.Floats, v.F)
			}
		default:
			for ; runLen > 0; runLen-- {
				out.Strs = append(out.Strs, v.S)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// readRuns is the one reader of the RLE payload layout — a sequence of
// uvarint(runLen) followed by one value — calling run for each; the runs
// must cover exactly n rows.
func readRuns(payload []byte, t table.Type, n int, run func(runLen int, v table.Value)) error {
	count := 0
	for off := 0; off < len(payload); {
		runLen, k := binary.Uvarint(payload[off:])
		if k <= 0 || runLen == 0 {
			return fmt.Errorf("%w: bad run length", ErrCorrupt)
		}
		off += k
		if runLen > uint64(n-count) {
			return fmt.Errorf("%w: run overruns rows", ErrCorrupt)
		}
		var v table.Value
		switch t {
		case table.Int:
			x, k := binary.Varint(payload[off:])
			if k <= 0 {
				return fmt.Errorf("%w: bad run value", ErrCorrupt)
			}
			off += k
			v = table.IntValue(x)
		case table.Float:
			if len(payload)-off < 8 {
				return fmt.Errorf("%w: truncated float run", ErrCorrupt)
			}
			v = table.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(payload[off:])))
			off += 8
		default:
			str, next, err := readString(payload, off)
			if err != nil {
				return err
			}
			v, off = table.StrValue(str), next
		}
		run(int(runLen), v)
		count += int(runLen)
	}
	if count != n {
		return fmt.Errorf("%w: %d values, want %d", ErrCorrupt, count, n)
	}
	return nil
}

// --- dictionary codec ---

// dictCodec stores distinct values once (in first-appearance order) and
// bit-packs per-row indexes: a low-cardinality column costs
// ceil(log2(cardinality)) bits per row.
type dictCodec struct{}

func (dictCodec) ID() CodecID { return Dict }
func (dictCodec) CanEncode(t table.Type) bool {
	return t == table.Int || t == table.Str
}

func (dictCodec) Encode(v *table.Vector) ([]byte, error) {
	n := v.Len()
	idx := make([]uint64, n)
	var buf []byte
	switch v.Type {
	case table.Int:
		dict := make(map[int64]uint64)
		var entries []int64
		for i, x := range v.Ints {
			id, ok := dict[x]
			if !ok {
				id = uint64(len(entries))
				dict[x] = id
				entries = append(entries, x)
			}
			idx[i] = id
		}
		buf = appendUvarint(buf, uint64(len(entries)))
		for _, x := range entries {
			buf = appendVarint(buf, x)
		}
	case table.Str:
		dict := make(map[string]uint64)
		var entries []string
		for i, s := range v.Strs {
			id, ok := dict[s]
			if !ok {
				id = uint64(len(entries))
				dict[s] = id
				entries = append(entries, s)
			}
			idx[i] = id
		}
		buf = appendUvarint(buf, uint64(len(entries)))
		for _, s := range entries {
			buf = appendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	default:
		return nil, fmt.Errorf("%w: dict on %s", ErrUnsupported, v.Type)
	}
	width := 0
	if len(idx) > 0 {
		width = maxWidth(idx)
	}
	buf = append(buf, byte(width))
	buf = append(buf, packBits(idx, width)...)
	return buf, nil
}

func (c dictCodec) size(v *table.Vector) (int, error) {
	return c.sizeBelow(v, math.MaxInt)
}

// sizeBelow is size for a caller that only needs to know whether the
// dictionary payload is smaller than limit. The pass stops as soon as its
// running lower bound — the entries seen so far plus every row's code at
// the current width — reaches limit, and returns that bound, which is
// then ≥ limit and ≤ the exact size; below limit the result is exact.
func (dictCodec) sizeBelow(v *table.Vector, limit int) (int, error) {
	switch v.Type {
	case table.Int:
		return dictSizeBelow(v.Ints, varintLen, limit), nil
	case table.Str:
		return dictSizeBelow(v.Strs, strLen, limit), nil
	}
	return 0, fmt.Errorf("%w: dict on %s", ErrUnsupported, v.Type)
}

// dictSizeBelow is sizeBelow over one typed column, entryLen giving an
// entry's serialized size.
func dictSizeBelow[T comparable](xs []T, entryLen func(T) int, limit int) int {
	seen := make(map[T]struct{})
	card, entryBytes := 0, 0
	// bound is the payload length if no further entry appeared.
	bound := func() int {
		width := 0
		if card > 0 {
			width = bits.Len64(uint64(card - 1))
		}
		return uvarintLen(uint64(card)) + entryBytes + 1 + packedLen(len(xs), width)
	}
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		if _, ok := seen[x]; ok {
			continue
		}
		seen[x] = struct{}{}
		card++
		entryBytes += entryLen(x)
		if b := bound(); b >= limit {
			return b
		}
	}
	return bound()
}

func (dictCodec) Decode(payload []byte, t table.Type, n int) (*table.Vector, error) {
	d, err := readDict(payload, t, n)
	if err != nil {
		return nil, err
	}
	idx, err := unpackBits(d.packed, d.width, n)
	if err != nil {
		return nil, err
	}
	// Gather straight into the typed slice, range-checking each code on the
	// way: one pass over the rows.
	out := &table.Vector{Type: t}
	if t == table.Int {
		out.Ints = make([]int64, n)
		for i, id := range idx {
			if id >= uint64(len(d.Ints)) {
				return nil, fmt.Errorf("%w: dict index out of range", ErrCorrupt)
			}
			out.Ints[i] = d.Ints[id]
		}
	} else {
		out.Strs = make([]string, n)
		for i, id := range idx {
			if id >= uint64(len(d.Strs)) {
				return nil, fmt.Errorf("%w: dict index out of range", ErrCorrupt)
			}
			out.Strs[i] = d.Strs[id]
		}
	}
	return out, nil
}

// readDict is the one reader of the dict payload layout: uvarint entry
// count, the entries in code order, one width byte, then n bit-packed codes
// (left packed; DictView.Codes and Decode unpack and range-check them).
func readDict(payload []byte, t table.Type, n int) (*DictView, error) {
	nEntries, k := binary.Uvarint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad dict size", ErrCorrupt)
	}
	off := k
	if nEntries > uint64(n) {
		return nil, fmt.Errorf("%w: dict larger than column", ErrCorrupt)
	}
	if nEntries == 0 && n > 0 {
		// No entry for any index to reference: corrupt, and rejecting it
		// here avoids allocating n values that could never be filled.
		return nil, fmt.Errorf("%w: empty dict for %d rows", ErrCorrupt, n)
	}
	d := &DictView{Type: t, rows: n}
	switch t {
	case table.Int:
		d.Ints = make([]int64, 0, nEntries)
		for e := uint64(0); e < nEntries; e++ {
			x, k := binary.Varint(payload[off:])
			if k <= 0 {
				return nil, fmt.Errorf("%w: bad dict entry", ErrCorrupt)
			}
			off += k
			d.Ints = append(d.Ints, x)
		}
	case table.Str:
		d.Strs = make([]string, 0, nEntries)
		for e := uint64(0); e < nEntries; e++ {
			str, next, err := readString(payload, off)
			if err != nil {
				return nil, err
			}
			d.Strs, off = append(d.Strs, str), next
		}
	default:
		return nil, fmt.Errorf("%w: dict on %s", ErrUnsupported, t)
	}
	if off < len(payload) {
		d.width = int(payload[off])
		off++
	} else if n != 0 {
		return nil, fmt.Errorf("%w: missing dict width", ErrCorrupt)
	}
	if d.width > 64 {
		return nil, fmt.Errorf("%w: dict width %d", ErrCorrupt, d.width)
	}
	d.packed = payload[off:]
	return d, nil
}

// --- delta codec ---

// deltaCodec stores the first value followed by bit-packed zig-zag deltas:
// sorted or serial int columns (surrogate keys, timestamps) cost a few
// bits per row.
type deltaCodec struct{}

func (deltaCodec) ID() CodecID                 { return Delta }
func (deltaCodec) CanEncode(t table.Type) bool { return t == table.Int }

func (deltaCodec) Encode(v *table.Vector) ([]byte, error) {
	if v.Type != table.Int {
		return nil, fmt.Errorf("%w: delta on %s", ErrUnsupported, v.Type)
	}
	if len(v.Ints) == 0 {
		return nil, nil
	}
	deltas := make([]uint64, len(v.Ints)-1)
	for i := 1; i < len(v.Ints); i++ {
		deltas[i-1] = zigzag(v.Ints[i] - v.Ints[i-1])
	}
	width := maxWidth(deltas)
	var buf []byte
	buf = appendVarint(buf, v.Ints[0])
	buf = append(buf, byte(width))
	buf = append(buf, packBits(deltas, width)...)
	return buf, nil
}

func (deltaCodec) size(v *table.Vector) (int, error) {
	if v.Type != table.Int {
		return 0, fmt.Errorf("%w: delta on %s", ErrUnsupported, v.Type)
	}
	if len(v.Ints) == 0 {
		return 0, nil
	}
	// The widest zig-zag delta sets the width; OR-ing them has the same
	// highest bit as their maximum.
	var all uint64
	for i := 1; i < len(v.Ints); i++ {
		all |= zigzag(v.Ints[i] - v.Ints[i-1])
	}
	return varintLen(v.Ints[0]) + 1 + packedLen(len(v.Ints)-1, bits.Len64(all)), nil
}

// Decode accumulates the packed deltas straight into the output, so the
// column is the one slice it allocates.
func (deltaCodec) Decode(payload []byte, t table.Type, n int) (*table.Vector, error) {
	if t != table.Int {
		return nil, fmt.Errorf("%w: delta on %s", ErrUnsupported, t)
	}
	out := &table.Vector{Type: table.Int}
	if n == 0 {
		if len(payload) != 0 {
			return nil, fmt.Errorf("%w: delta payload for empty column", ErrCorrupt)
		}
		return out, nil
	}
	first, k := binary.Varint(payload)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad delta first value", ErrCorrupt)
	}
	off := k
	if off >= len(payload) {
		return nil, fmt.Errorf("%w: missing delta width", ErrCorrupt)
	}
	width := int(payload[off])
	off++
	if width > 64 {
		return nil, fmt.Errorf("%w: delta width %d", ErrCorrupt, width)
	}
	packed := payload[off:]
	if err := packedFits(packed, width, n-1); err != nil {
		return nil, err
	}
	out.Ints = make([]int64, n)
	out.Ints[0] = first
	if width == 0 {
		for i := 1; i < n; i++ {
			out.Ints[i] = first
		}
		return out, nil
	}
	// Unpack a block of deltas at a time onto the stack and fold each
	// block into the running sum.
	var block [256]uint64
	cur := first
	for i := 1; i < n; {
		deltas := block[:min(len(block), n-i)]
		unpackRange(packed, width, i-1, deltas)
		for _, d := range deltas {
			cur += unzigzag(d)
			out.Ints[i] = cur
			i++
		}
	}
	return out, nil
}

// --- scaled-decimal float codec ---

// floatDecScales are the decimal scales floatDecCodec probes, smallest
// first. Index into this array is the serialized scale exponent.
var floatDecScales = [...]float64{1, 10, 100, 1000, 10000}

// floatDecCodec handles the money columns that dominate analytic schemas:
// when every float in the column is exactly a decimal with at most four
// fractional digits, it rescales to int64 and delegates to the best int
// codec (delta for sorted amounts, dict for low cardinality, …). The
// encode-side exactness check guarantees bit-identical round-trips; columns
// that fail it (true reals, NaN, huge magnitudes) report ErrUnsupported and
// fall back to raw.
type floatDecCodec struct{}

func (floatDecCodec) ID() CodecID                 { return FloatDec }
func (floatDecCodec) CanEncode(t table.Type) bool { return t == table.Float }

func (floatDecCodec) Encode(v *table.Vector) ([]byte, error) {
	scaleExp, iv, err := decimalInts(v)
	if err != nil {
		return nil, err
	}
	// Candidates(Int) never includes FloatDec, so this cannot recurse.
	innerID, innerPayload, err := bestEncoding(iv)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(innerPayload)+2)
	buf = append(buf, byte(scaleExp), byte(innerID))
	return append(buf, innerPayload...), nil
}

func (floatDecCodec) size(v *table.Vector) (int, error) {
	_, iv, err := decimalInts(v)
	if err != nil {
		return 0, err
	}
	_, inner := bestCodec(iv)
	return 2 + inner, nil
}

// decimalInts is floatdec's exactness probe: the smallest scale at which
// every float in v is exactly a decimal, and the column rescaled to ints
// at that scale. It fails with ErrUnsupported when no scale fits (true
// reals, NaN, huge magnitudes).
func decimalInts(v *table.Vector) (int, *table.Vector, error) {
	if v.Type != table.Float {
		return 0, nil, fmt.Errorf("%w: floatdec on %s", ErrUnsupported, v.Type)
	}
	ints := make([]int64, len(v.Floats))
probe:
	for e, scale := range floatDecScales {
		for i, f := range v.Floats {
			if f != f { // NaN never passes the bit-equality check below
				return 0, nil, fmt.Errorf("%w: NaN in floatdec column", ErrUnsupported)
			}
			scaled := f * scale
			if math.Abs(scaled) >= 1<<53 {
				continue probe
			}
			x := int64(math.Round(scaled))
			if math.Float64bits(float64(x)/scale) != math.Float64bits(f) {
				continue probe
			}
			ints[i] = x
		}
		return e, &table.Vector{Type: table.Int, Ints: ints}, nil
	}
	return 0, nil, fmt.Errorf("%w: column is not decimal-exact", ErrUnsupported)
}

func (floatDecCodec) Decode(payload []byte, t table.Type, n int) (*table.Vector, error) {
	if t != table.Float {
		return nil, fmt.Errorf("%w: floatdec on %s", ErrUnsupported, t)
	}
	if len(payload) < 2 {
		return nil, fmt.Errorf("%w: truncated floatdec header", ErrCorrupt)
	}
	scaleExp, innerID := int(payload[0]), CodecID(payload[1])
	if scaleExp >= len(floatDecScales) {
		return nil, fmt.Errorf("%w: floatdec scale %d", ErrCorrupt, scaleExp)
	}
	if innerID == FloatDec {
		return nil, fmt.Errorf("%w: recursive floatdec", ErrCorrupt)
	}
	inner, err := ByID(innerID)
	if err != nil {
		return nil, err
	}
	iv, err := inner.Decode(payload[2:], table.Int, n)
	if err != nil {
		return nil, err
	}
	scale := floatDecScales[scaleExp]
	out := &table.Vector{Type: table.Float, Floats: make([]float64, n)}
	for i, x := range iv.Ints {
		out.Floats[i] = float64(x) / scale
	}
	return out, nil
}

// allocHint bounds decode preallocation so a corrupted row count cannot
// translate into a huge make() before length checks fail.
func allocHint(n, bound int) int {
	if n < bound {
		return n
	}
	return bound
}
