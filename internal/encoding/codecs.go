package encoding

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/shortcircuit-db/sc/internal/table"
)

// --- bit packing ---

//go:generate go run mkbitpack.go

// appendPacked appends each value's low `width` bits to buf as an
// LSB-first bitstream, growing buf once to fit them. It is the one writer
// of the bit-packed layout. Its fast path is the generated kernels of
// bitpack_gen.go, which pack each whole group of 8 values at a width of
// at most maxKernelWidth; packLoop is the fallback, for wider widths and
// the last few values. One stream may be packed over several calls when
// every call but the last passes a multiple of 8 values: each such call
// then ends on a byte boundary. Values are non-negative: codes,
// dictionary ids or zig-zag deltas.
func appendPacked[T uint64 | int32](buf []byte, vals []T, width int) []byte {
	if width == 0 {
		return buf
	}
	buf = slices.Grow(buf, packedLen(len(vals), width))
	if width <= maxKernelWidth {
		whole := len(vals) &^ 7
		var out []byte
		buf, out = extend(buf, whole/8*width)
		packGroups(out, vals[:whole], width)
		vals = vals[whole:]
	}
	return packLoop(buf, vals, width)
}

// packLoop is appendPacked value by value: values are folded into a 64-bit
// accumulator, which is appended a word at a time. It is a function of
// its own for the reason unpackLoop is.
func packLoop[T uint64 | int32](buf []byte, vals []T, width int) []byte {
	mask := ^uint64(0) >> uint(64-width)
	var acc uint64
	accBits := 0
	for _, x := range vals {
		v := uint64(x) & mask
		acc |= v << uint(accBits)
		accBits += width
		if accBits >= 64 {
			buf = binary.LittleEndian.AppendUint64(buf, acc)
			accBits -= 64
			// Shifting by 64 yields 0 in Go, so width == accBits-0 == 64
			// (exactly consumed) leaves acc empty as required.
			acc = v >> uint(width-accBits)
		}
	}
	for ; accBits > 0; accBits -= 8 {
		buf = append(buf, byte(acc))
		acc >>= 8
	}
	return buf
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

// unpackRange fills dst with the width-bit values (0 <= width <= 64) of an
// LSB-first bitstream starting at value index first. It is the one reader
// of the bit-packed layout: unpackBits fills a whole column with it, and
// the dict and delta decoders a block at a time. Its fast path is the
// generated kernels of bitpack_gen.go, which decode whole groups of 8
// values at a width of at most maxKernelWidth when first is a multiple
// of 8. unpackLoop is the fallback, for wider widths, an unaligned first
// and the buffer's tail.
func unpackRange(data []byte, width, first int, dst []uint64) {
	if off := first / 8 * width; 0 < width && width <= maxKernelWidth && first%8 == 0 && off < len(data) {
		k := unpackGroups(data[off:], dst, width)
		first, dst = first+k, dst[k:]
	}
	unpackLoop(data, width, first, dst)
}

// unpackLoop is unpackRange value by value: each value comes from one
// 64-bit load, or two near the buffer's tail or for widths > 57. It is a
// function of its own: written in unpackRange after the kernel call, the
// loop ran ~20 % slower at width 40 (BenchmarkUnpackRange, 2-vCPU Xeon).
func unpackLoop(data []byte, width, first int, dst []uint64) {
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

// packedLen returns the bytes appendPacked emits for n values of width bits.
func packedLen(n, width int) int { return (n*width + 7) / 8 }

// extend lengthens s by n values and returns it with its new tail. Spare
// capacity is taken as it is, without clearing: the caller overwrites the
// whole tail.
func extend[T any](s []T, n int) ([]T, []T) {
	s = slices.Grow(s, n)[:len(s)+n]
	return s, s[len(s)-n:]
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
	lo, hi, err := stringAt(payload, off)
	if err != nil {
		return "", 0, err
	}
	return string(payload[lo:hi]), hi, nil
}

// stringAt locates one length-prefixed string at off: its bytes are
// payload[lo:hi], and hi is the offset past it.
func stringAt(payload []byte, off int) (lo, hi int, err error) {
	l, k := binary.Uvarint(payload[off:])
	if k <= 0 {
		return 0, 0, fmt.Errorf("%w: bad string length", ErrCorrupt)
	}
	off += k
	if l > uint64(len(payload)-off) {
		return 0, 0, fmt.Errorf("%w: string overruns payload", ErrCorrupt)
	}
	return off, off + int(l), nil
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

func (rawCodec) decode(payload []byte, rows, n int, dst *table.Vector) error {
	if dst.Type == table.Str {
		dst.Strs = slices.Grow(dst.Strs, allocHint(n, len(payload)))
		count := 0
		for off := 0; off < len(payload); count++ {
			lo, hi, err := stringAt(payload, off)
			if err != nil {
				return err
			}
			if count < n {
				dst.Strs = append(dst.Strs, string(payload[lo:hi]))
			}
			off = hi
		}
		if count != rows {
			return fmt.Errorf("%w: %d strings, want %d", ErrCorrupt, count, rows)
		}
		return nil
	}
	if len(payload) != rows*8 {
		return fmt.Errorf("%w: %d raw %s bytes, want %d", ErrCorrupt, len(payload), dst.Type, rows*8)
	}
	if dst.Type == table.Int {
		var out []int64
		dst.Ints, out = extend(dst.Ints, n)
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(payload[i*8:]))
		}
		return nil
	}
	var out []float64
	dst.Floats, out = extend(dst.Floats, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return nil
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

func (rleCodec) decode(payload []byte, rows, n int, dst *table.Vector) error {
	return readRuns(payload, dst.Type, rows, func(runLen int, v table.Value) {
		for ; runLen > 0 && n > 0; runLen, n = runLen-1, n-1 {
			_ = dst.Append(v) // v has dst's type
		}
	})
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
	if v.Type != table.Int && v.Type != table.Str {
		return nil, fmt.Errorf("%w: dict on %s", ErrUnsupported, v.Type)
	}
	kd := NewKeyDict(v.Type)
	ids := kd.IDs(v, true, nil)
	entries := table.MakeVector(v.Type, 0, kd.Len())
	next := int32(0) // ids are dense from 0, in first-use order
	for i, id := range ids {
		if id == next {
			entries.AppendAt(v, i)
			next++
		}
	}
	return dictPayload(entries, ids), nil
}

// dictPayload is the one writer of the dict payload layout readDict reads:
// uvarint entry count, the entries in code order, one width byte, then
// each row's code bit-packed at the width of the largest possible code,
// the entry count less one.
func dictPayload(entries *table.Vector, codes []int32) []byte {
	card := entries.Len()
	buf := appendUvarint(nil, uint64(card))
	if entries.Type == table.Int {
		for _, x := range entries.Ints {
			buf = appendVarint(buf, x)
		}
	} else {
		for _, s := range entries.Strs {
			buf = appendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
	}
	width := bits.Len64(uint64(max(card, 1) - 1))
	buf = append(buf, byte(width))
	return appendPacked(buf, codes, width)
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
		if lo, words, ok := spanWords(v.Ints); ok {
			set := spanSeen.Get().(*[]uint64)
			defer spanSeen.Put(set)
			*set = slices.Grow((*set)[:0], words)[:words]
			clear(*set)
			return dictSizeBelow(v.Ints, varintLen, limit, bitSeen(lo, *set)), nil
		}
		return dictSizeBelow(v.Ints, varintLen, limit, mapSeen[int64]()), nil
	case table.Str:
		return dictSizeBelow(v.Strs, strLen, limit, mapSeen[string]()), nil
	}
	return 0, fmt.Errorf("%w: dict on %s", ErrUnsupported, v.Type)
}

// dictSizeBelow is sizeBelow over one typed column, entryLen giving an
// entry's serialized size and seen reporting whether a value was met
// before (and marking it met). It keeps its own seen-set rather than a
// KeyDict: a KeyDict's int32 window raised allocation per compressed
// refresh from 479.0 to 495.6 MB, and sizing needs no ids.
func dictSizeBelow[T comparable](xs []T, entryLen func(T) int, limit int, seen func(T) bool) int {
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
		if seen(x) {
			continue
		}
		card++
		entryBytes += entryLen(x)
		if b := bound(); b >= limit {
			return b
		}
	}
	return bound()
}

// maxSpanBits caps the bitset an INT column's seen values are tracked in
// (512 KiB).
const maxSpanBits = 1 << 22

// spanWords reports whether an INT column's values lo … hi fit a bitset of
// no more bits than 64 per value (so no larger than the column) and at
// most maxSpanBits, and returns lo and the bitset's length in words.
func spanWords(xs []int64) (lo int64, words int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	span := uint64(hi) - uint64(lo) // the values are lo+0 … lo+span
	if span >= 64*uint64(len(xs)) || span >= maxSpanBits {
		return 0, 0, false
	}
	return lo, int(span/64) + 1, true
}

// spanSeen recycles the bitsets of bitSeen.
var spanSeen = sync.Pool{New: func() any { return new([]uint64) }}

// bitSeen is a seen-set over the values lo, lo+1, …, one bit each in set,
// which must cover every value asked about and start cleared.
func bitSeen(lo int64, set []uint64) func(int64) bool {
	return func(x int64) bool {
		i := uint64(x) - uint64(lo)
		w, bit := &set[i>>6], uint64(1)<<(i&63)
		met := *w&bit != 0
		*w |= bit
		return met
	}
}

// mapSeen is a seen-set over any comparable values.
func mapSeen[T comparable]() func(T) bool {
	set := make(map[T]struct{})
	return func(x T) bool {
		if _, ok := set[x]; ok {
			return true
		}
		set[x] = struct{}{}
		return false
	}
}

// decode gathers each row's entry straight into dst's tail, unpacking the
// codes a block at a time on the stack and range-checking each on the way.
func (dictCodec) decode(payload []byte, rows, n int, dst *table.Vector) error {
	var small [256]int64 // a small INT dictionary's entries stay on the stack
	d, err := readDict(payload, dst.Type, rows, small[:0])
	if err != nil {
		return err
	}
	if err := packedFits(d.packed, d.width, n); err != nil {
		return err
	}
	if dst.Type == table.Int {
		var out []int64
		dst.Ints, out = extend(dst.Ints, n)
		return gatherCodes(d.packed, d.width, d.Ints, out)
	}
	var out []string
	dst.Strs, out = extend(dst.Strs, n)
	return gatherCodes(d.packed, d.width, d.Strs, out)
}

// gatherCodes sets out[i] to the entry of row i's code, packed at width
// bits.
func gatherCodes[T any](packed []byte, width int, entries, out []T) error {
	var block [256]uint64
	for i := 0; i < len(out); i += len(block) {
		codes := block[:min(len(block), len(out)-i)]
		unpackRange(packed, width, i, codes)
		rows := out[i : i+len(codes)]
		for k, c := range codes {
			if c >= uint64(len(entries)) {
				return fmt.Errorf("%w: dict index out of range", ErrCorrupt)
			}
			rows[k] = entries[c]
		}
	}
	return nil
}

// readDict is the one reader of the dict payload layout: uvarint entry
// count, the entries in code order, one width byte, then n bit-packed codes
// (left packed; DictView.Codes and decode unpack and range-check them). An
// INT dictionary's entries go into ints' storage when it has room.
func readDict(payload []byte, t table.Type, n int, ints []int64) (DictView, error) {
	nEntries, k := binary.Uvarint(payload)
	if k <= 0 {
		return DictView{}, fmt.Errorf("%w: bad dict size", ErrCorrupt)
	}
	off := k
	if nEntries > uint64(n) {
		return DictView{}, fmt.Errorf("%w: dict larger than column", ErrCorrupt)
	}
	if nEntries == 0 && n > 0 {
		// No entry for any index to reference: corrupt, and rejecting it
		// here avoids allocating n values that could never be filled.
		return DictView{}, fmt.Errorf("%w: empty dict for %d rows", ErrCorrupt, n)
	}
	d := DictView{Vector: table.Vector{Type: t}, rows: n}
	switch t {
	case table.Int:
		d.Ints = slices.Grow(ints[:0], int(nEntries))
		for e := uint64(0); e < nEntries; e++ {
			x, k := binary.Varint(payload[off:])
			if k <= 0 {
				return DictView{}, fmt.Errorf("%w: bad dict entry", ErrCorrupt)
			}
			off += k
			d.Ints = append(d.Ints, x)
		}
	case table.Str:
		d.Strs = make([]string, 0, nEntries)
		for e := uint64(0); e < nEntries; e++ {
			str, next, err := readString(payload, off)
			if err != nil {
				return DictView{}, err
			}
			d.Strs, off = append(d.Strs, str), next
		}
	default:
		return DictView{}, fmt.Errorf("%w: dict on %s", ErrUnsupported, t)
	}
	if off < len(payload) {
		d.width = int(payload[off])
		off++
	} else if n != 0 {
		return DictView{}, fmt.Errorf("%w: missing dict width", ErrCorrupt)
	}
	if d.width > 64 {
		return DictView{}, fmt.Errorf("%w: dict width %d", ErrCorrupt, d.width)
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
	xs := v.Ints
	if len(xs) == 0 {
		return nil, nil
	}
	width := deltaWidth(xs)
	buf := make([]byte, 0, varintLen(xs[0])+1+packedLen(len(xs)-1, width))
	buf = appendVarint(buf, xs[0])
	buf = append(buf, byte(width))
	// Zig-zag a block of deltas at a time onto the stack and pack it.
	var block [256]uint64
	for i := 1; i < len(xs); {
		deltas := block[:min(len(block), len(xs)-i)]
		for k := range deltas {
			deltas[k] = zigzag(xs[i] - xs[i-1])
			i++
		}
		buf = appendPacked(buf, deltas, width)
	}
	return buf, nil
}

func (deltaCodec) size(v *table.Vector) (int, error) {
	if v.Type != table.Int {
		return 0, fmt.Errorf("%w: delta on %s", ErrUnsupported, v.Type)
	}
	if len(v.Ints) == 0 {
		return 0, nil
	}
	return varintLen(v.Ints[0]) + 1 + packedLen(len(v.Ints)-1, deltaWidth(v.Ints)), nil
}

// deltaWidth returns the bit width of the widest zig-zag delta of xs:
// OR-ing them has the same highest bit as their maximum.
func deltaWidth(xs []int64) int {
	var all uint64
	for i := 1; i < len(xs); i++ {
		all |= zigzag(xs[i] - xs[i-1])
	}
	return bits.Len64(all)
}

// decode accumulates the packed deltas straight into dst's tail.
func (deltaCodec) decode(payload []byte, rows, n int, dst *table.Vector) error {
	if dst.Type != table.Int {
		return fmt.Errorf("%w: delta on %s", ErrUnsupported, dst.Type)
	}
	if rows == 0 {
		if len(payload) != 0 {
			return fmt.Errorf("%w: delta payload for empty column", ErrCorrupt)
		}
		return nil
	}
	first, k := binary.Varint(payload)
	if k <= 0 {
		return fmt.Errorf("%w: bad delta first value", ErrCorrupt)
	}
	off := k
	if off >= len(payload) {
		return fmt.Errorf("%w: missing delta width", ErrCorrupt)
	}
	width := int(payload[off])
	off++
	if width > 64 {
		return fmt.Errorf("%w: delta width %d", ErrCorrupt, width)
	}
	if n == 0 {
		return nil
	}
	packed := payload[off:]
	if err := packedFits(packed, width, n-1); err != nil {
		return err
	}
	var out []int64
	dst.Ints, out = extend(dst.Ints, n)
	out[0] = first
	// Unpack a block of deltas at a time onto the stack, then unzigzag
	// each and add it to the running sum in one pass over the block.
	var block [256]uint64
	cur := first
	for i := 1; i < n; i += len(block) {
		deltas := block[:min(len(block), n-i)]
		unpackRange(packed, width, i-1, deltas)
		sums := out[i : i+len(deltas)]
		for k, d := range deltas {
			cur += unzigzag(d)
			sums[k] = cur
		}
	}
	return nil
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

// decimalScratch recycles the INT vectors floatdec decodes its inner
// payload into before scaling them into the destination.
var decimalScratch = sync.Pool{New: func() any { return &table.Vector{Type: table.Int} }}

func (floatDecCodec) decode(payload []byte, rows, n int, dst *table.Vector) error {
	if dst.Type != table.Float {
		return fmt.Errorf("%w: floatdec on %s", ErrUnsupported, dst.Type)
	}
	if len(payload) < 2 {
		return fmt.Errorf("%w: truncated floatdec header", ErrCorrupt)
	}
	scaleExp, innerID := int(payload[0]), CodecID(payload[1])
	if scaleExp >= len(floatDecScales) {
		return fmt.Errorf("%w: floatdec scale %d", ErrCorrupt, scaleExp)
	}
	if innerID == FloatDec {
		return fmt.Errorf("%w: recursive floatdec", ErrCorrupt)
	}
	inner, err := ByID(innerID)
	if err != nil {
		return err
	}
	iv := decimalScratch.Get().(*table.Vector)
	defer decimalScratch.Put(iv)
	iv.Reset()
	if err := inner.decode(payload[2:], rows, n, iv); err != nil {
		return err
	}
	scale := floatDecScales[scaleExp]
	var out []float64
	dst.Floats, out = extend(dst.Floats, n)
	for i, x := range iv.Ints {
		out[i] = float64(x) / scale
	}
	return nil
}

// allocHint bounds decode preallocation so a corrupted row count cannot
// translate into a huge make() before length checks fail.
func allocHint(n, bound int) int {
	if n < bound {
		return n
	}
	return bound
}
