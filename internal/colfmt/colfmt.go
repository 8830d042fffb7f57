// Package colfmt implements the columnar binary format S/C materializes
// intermediate tables in, standing in for Parquet in the paper's stack.
//
// Two formats are written and read. Version 1 ("SCF1") is the
// single-payload row-path layout below; the chunked format ("SCF3", see
// v3.go) is the self-describing layout backed by the internal/encoding
// codec subsystem (dictionary, delta + bit-packing, scaled-decimal
// floats; run-length chunks of older objects still read). Decode and
// DecodeSchema dispatch on the magic; writers choose the format (Encode →
// v1, EncodeTable/EncodeCompressed → chunked).
//
// Each format has one reader, which walks its headers once. DecodeSchema
// is that walk without the values: of a v1 file it reads the column
// headers and skips every payload and its checksum, so a corrupt payload
// still yields its schema; of a chunked file it is DecodeCompressed, which
// checks every chunk's checksum and decompresses nothing.
//
// Version 1 layout (all little-endian):
//
//	magic "SCF1" | u32 nCols | u64 nRows
//	per column:
//	  u16 nameLen | name | u8 type | u8 encoding | u64 payloadLen |
//	  payload | u32 crc32(payload)
//
// Version 1 encodings are chosen per column automatically:
//
//	int columns   – zig-zag varint deltas, or run-length when runs dominate
//	float columns – raw 8-byte IEEE754
//	string column – length-prefixed plain, or dictionary when repetitive
package colfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/shortcircuit-db/sc/internal/table"
)

var magic = [4]byte{'S', 'C', 'F', '1'}

// Encoding identifies how a column payload is encoded.
type Encoding uint8

// Encodings.
const (
	EncPlain Encoding = iota // type-dependent plain encoding
	EncRLE                   // run-length (ints): varint(runLen), zigzag varint(value)
	EncDict                  // dictionary (strings): dict block + varint indexes
)

// ErrCorrupt reports a malformed or checksum-failing file.
var ErrCorrupt = errors.New("colfmt: corrupt data")

// Encode serializes the table.
func Encode(t *table.Table) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	buf := append([]byte(nil), magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Cols)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.NumRows()))
	for i, col := range t.Cols {
		name := t.Schema.Cols[i].Name
		if len(name) > math.MaxUint16 {
			return nil, fmt.Errorf("colfmt: column name too long (%d bytes)", len(name))
		}
		var payload []byte
		var enc Encoding
		switch col.Type {
		case table.Int:
			payload, enc = encodeInts(col.Ints)
		case table.Float:
			payload, enc = encodeFloats(col.Floats), EncPlain
		case table.Str:
			payload, enc = encodeStrings(col.Strs)
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(col.Type), byte(enc))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
		buf = append(buf, payload...)
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	}
	return buf, nil
}

// Decode parses data produced by Encode (v1) or EncodeTable/
// EncodeCompressed (chunked), dispatching on the magic.
func Decode(data []byte) (*table.Table, error) {
	if IsChunked(data) {
		return decodeChunked(data, 0)
	}
	t, _, err := readV1(data, true)
	return t, err
}

// DecodeSchema reads an encoded table's schema and row count without
// decoding a value (see the package doc for what each format reads); the
// controller uses it to learn MV schemas without paying a full decode.
func DecodeSchema(data []byte) (table.Schema, int, error) {
	if IsChunked(data) {
		ct, err := DecodeCompressed(data)
		if err != nil {
			return table.Schema{}, 0, err
		}
		return ct.Schema, ct.NRows, nil
	}
	t, n, err := readV1(data, false)
	if err != nil {
		return table.Schema{}, 0, err
	}
	return t.Schema, n, nil
}

// readV1 walks a v1 file and returns its table and row count. With values
// it checks and decodes every column payload; without, it skips each payload
// and its checksum and the table carries only its schema.
func readV1(data []byte, values bool) (*table.Table, int, error) {
	r := &reader{data: data}
	if m, err := r.next(4); err != nil || [4]byte(m) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	nCols, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	nRows64, err := r.u64()
	if err != nil {
		return nil, 0, err
	}
	if nRows64 > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: absurd row count %d", ErrCorrupt, nRows64)
	}
	if nCols == 0 && nRows64 != 0 {
		// Nothing backs the count: Decode would report 0 rows and
		// DecodeSchema the header's. encoding.Compressed.Validate holds a
		// chunked file to the same rule.
		return nil, 0, fmt.Errorf("%w: %d rows with no columns", ErrCorrupt, nRows64)
	}
	nRows := int(nRows64)
	t := &table.Table{}
	for c := uint32(0); c < nCols; c++ {
		nameLen, err := r.u16()
		if err != nil {
			return nil, 0, err
		}
		nameB, err := r.next(uint64(nameLen))
		if err != nil {
			return nil, 0, err
		}
		typB, err := r.u8()
		if err != nil {
			return nil, 0, err
		}
		if typB > uint8(table.Str) {
			return nil, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, typB)
		}
		typ := table.Type(typB)
		encB, err := r.u8()
		if err != nil {
			return nil, 0, err
		}
		payloadLen, err := r.u64()
		if err != nil {
			return nil, 0, err
		}
		payload, err := r.next(payloadLen)
		if err != nil {
			return nil, 0, err
		}
		sum, err := r.u32()
		if err != nil {
			return nil, 0, err
		}
		t.Schema.Cols = append(t.Schema.Cols, table.Column{Name: string(nameB), Type: typ})
		if !values {
			continue
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, 0, fmt.Errorf("%w: checksum mismatch in column %q", ErrCorrupt, nameB)
		}
		vec := &table.Vector{Type: typ}
		switch typ {
		case table.Int:
			vec.Ints, err = decodeInts(payload, Encoding(encB), nRows)
		case table.Float:
			vec.Floats, err = decodeFloats(payload, nRows)
		case table.Str:
			vec.Strs, err = decodeStrings(payload, Encoding(encB), nRows)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("column %q: %w", nameB, err)
		}
		t.Cols = append(t.Cols, vec)
	}
	if values {
		if err := t.Validate(); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return t, nRows, nil
}

// --- int encodings ---

// encodeInts picks RLE when the column has long runs, otherwise zig-zag
// varint deltas (sorted surrogate keys compress well as deltas).
func encodeInts(vals []int64) ([]byte, Encoding) {
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	if len(vals) >= 16 && runs*4 <= len(vals) {
		return encodeIntsRLE(vals), EncRLE
	}
	return encodeIntsDelta(vals), EncPlain
}

func encodeIntsDelta(vals []int64) []byte {
	buf := make([]byte, 0, len(vals)*2)
	var prev int64
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range vals {
		n := binary.PutVarint(tmp[:], v-prev)
		buf = append(buf, tmp[:n]...)
		prev = v
	}
	return buf
}

func encodeIntsRLE(vals []int64) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	i := 0
	for i < len(vals) {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		n := binary.PutUvarint(tmp[:], uint64(j-i))
		buf = append(buf, tmp[:n]...)
		n = binary.PutVarint(tmp[:], vals[i])
		buf = append(buf, tmp[:n]...)
		i = j
	}
	return buf
}

// allocHint bounds decode preallocation: the header's row count is not
// checksummed, so a corrupted count must not translate into a gigabyte
// make() before the length check fails. Plain encodings spend ≥1 byte per
// value, so the payload length is a safe upper bound; run-length encodings
// can legitimately expand far beyond it, so they start from a modest
// capacity and let append grow.
func allocHint(nRows, bound int) int {
	if nRows < bound {
		return nRows
	}
	return bound
}

func decodeInts(payload []byte, enc Encoding, nRows int) ([]int64, error) {
	switch enc {
	case EncPlain:
		out := make([]int64, 0, allocHint(nRows, len(payload)))
		var prev int64
		for off := 0; off < len(payload); {
			d, n := binary.Varint(payload[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
			}
			off += n
			prev += d
			out = append(out, prev)
		}
		if len(out) != nRows {
			return nil, fmt.Errorf("%w: %d ints, want %d", ErrCorrupt, len(out), nRows)
		}
		return out, nil
	case EncRLE:
		out := make([]int64, 0, allocHint(nRows, 1<<16))
		for off := 0; off < len(payload); {
			runLen, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad run length", ErrCorrupt)
			}
			off += n
			v, n := binary.Varint(payload[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad run value", ErrCorrupt)
			}
			off += n
			if runLen > uint64(nRows-len(out)) {
				return nil, fmt.Errorf("%w: run overruns rows", ErrCorrupt)
			}
			for k := uint64(0); k < runLen; k++ {
				out = append(out, v)
			}
		}
		if len(out) != nRows {
			return nil, fmt.Errorf("%w: %d ints, want %d", ErrCorrupt, len(out), nRows)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: unknown int encoding %d", ErrCorrupt, enc)
}

// --- float encoding ---

func encodeFloats(vals []float64) []byte {
	buf := make([]byte, len(vals)*8)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func decodeFloats(payload []byte, nRows int) ([]float64, error) {
	if len(payload) != nRows*8 {
		return nil, fmt.Errorf("%w: %d float bytes, want %d", ErrCorrupt, len(payload), nRows*8)
	}
	out := make([]float64, nRows)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[i*8:]))
	}
	return out, nil
}

// --- string encodings ---

// encodeStrings picks dictionary encoding when values repeat enough to pay
// for the dictionary block.
func encodeStrings(vals []string) ([]byte, Encoding) {
	distinct := make(map[string]int)
	for _, s := range vals {
		if _, ok := distinct[s]; !ok {
			distinct[s] = len(distinct)
		}
	}
	if len(vals) >= 16 && len(distinct)*2 <= len(vals) {
		return encodeStringsDict(vals, distinct), EncDict
	}
	return encodeStringsPlain(vals), EncPlain
}

func encodeStringsPlain(vals []string) []byte {
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, s := range vals {
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, s...)
	}
	return buf
}

func encodeStringsDict(vals []string, dict map[string]int) []byte {
	// Dictionary in first-appearance order so indexes are stable.
	entries := make([]string, len(dict))
	for s, i := range dict {
		entries[i] = s
	}
	var buf []byte
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(entries)))
	buf = append(buf, tmp[:n]...)
	for _, s := range entries {
		n = binary.PutUvarint(tmp[:], uint64(len(s)))
		buf = append(buf, tmp[:n]...)
		buf = append(buf, s...)
	}
	for _, s := range vals {
		n = binary.PutUvarint(tmp[:], uint64(dict[s]))
		buf = append(buf, tmp[:n]...)
	}
	return buf
}

func decodeStrings(payload []byte, enc Encoding, nRows int) ([]string, error) {
	switch enc {
	case EncPlain:
		out := make([]string, 0, allocHint(nRows, len(payload)))
		for off := 0; off < len(payload); {
			l, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad string length", ErrCorrupt)
			}
			off += n
			if l > uint64(len(payload)-off) {
				return nil, fmt.Errorf("%w: string overruns payload", ErrCorrupt)
			}
			out = append(out, string(payload[off:off+int(l)]))
			off += int(l)
		}
		if len(out) != nRows {
			return nil, fmt.Errorf("%w: %d strings, want %d", ErrCorrupt, len(out), nRows)
		}
		return out, nil
	case EncDict:
		off := 0
		dictLen, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad dict length", ErrCorrupt)
		}
		off += n
		if dictLen > uint64(len(payload)) {
			return nil, fmt.Errorf("%w: absurd dict length", ErrCorrupt)
		}
		dict := make([]string, 0, dictLen)
		for k := uint64(0); k < dictLen; k++ {
			l, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad dict entry length", ErrCorrupt)
			}
			off += n
			if l > uint64(len(payload)-off) {
				return nil, fmt.Errorf("%w: dict entry overruns payload", ErrCorrupt)
			}
			dict = append(dict, string(payload[off:off+int(l)]))
			off += int(l)
		}
		out := make([]string, 0, allocHint(nRows, len(payload)))
		for off < len(payload) {
			idx, n := binary.Uvarint(payload[off:])
			if n <= 0 {
				return nil, fmt.Errorf("%w: bad dict index", ErrCorrupt)
			}
			off += n
			if idx >= uint64(len(dict)) {
				return nil, fmt.Errorf("%w: dict index out of range", ErrCorrupt)
			}
			out = append(out, dict[idx])
		}
		if len(out) != nRows {
			return nil, fmt.Errorf("%w: %d strings, want %d", ErrCorrupt, len(out), nRows)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: unknown string encoding %d", ErrCorrupt, enc)
}

// --- buffer helpers ---

type reader struct {
	data []byte
	off  int
}

// next returns the following n bytes, aliasing data, and steps past them.
func (r *reader) next(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.off) {
		return nil, fmt.Errorf("%w: %d bytes overrun the buffer", ErrCorrupt, n)
	}
	b := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.next(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.next(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.next(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}
