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
	"bytes"
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
	var buf bytes.Buffer
	buf.Write(magic[:])
	writeU32(&buf, uint32(len(t.Cols)))
	writeU64(&buf, uint64(t.NumRows()))
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
		writeU16(&buf, uint16(len(name)))
		buf.WriteString(name)
		buf.WriteByte(byte(col.Type))
		buf.WriteByte(byte(enc))
		writeU64(&buf, uint64(len(payload)))
		buf.Write(payload)
		writeU32(&buf, crc32.ChecksumIEEE(payload))
	}
	return buf.Bytes(), nil
}

// Decode parses data produced by Encode (v1) or EncodeTable/
// EncodeCompressed (chunked), dispatching on the magic.
func Decode(data []byte) (*table.Table, error) {
	if IsChunked(data) {
		return decodeChunked(data, 0)
	}
	r := &reader{data: data}
	var m [4]byte
	if err := r.bytes(m[:]); err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	nCols, err := r.u32()
	if err != nil {
		return nil, err
	}
	nRows64, err := r.u64()
	if err != nil {
		return nil, err
	}
	if nRows64 > math.MaxInt32 {
		return nil, fmt.Errorf("%w: absurd row count %d", ErrCorrupt, nRows64)
	}
	nRows := int(nRows64)
	schema := table.Schema{}
	var cols []*table.Vector
	for c := uint32(0); c < nCols; c++ {
		nameLen, err := r.u16()
		if err != nil {
			return nil, err
		}
		nameB := make([]byte, nameLen)
		if err := r.bytes(nameB); err != nil {
			return nil, err
		}
		typB, err := r.u8()
		if err != nil {
			return nil, err
		}
		if typB > uint8(table.Str) {
			return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, typB)
		}
		typ := table.Type(typB)
		encB, err := r.u8()
		if err != nil {
			return nil, err
		}
		payloadLen, err := r.u64()
		if err != nil {
			return nil, err
		}
		if payloadLen > uint64(len(r.data)-r.off) {
			return nil, fmt.Errorf("%w: payload overruns buffer", ErrCorrupt)
		}
		payload := r.data[r.off : r.off+int(payloadLen)]
		r.off += int(payloadLen)
		sum, err := r.u32()
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: checksum mismatch in column %q", ErrCorrupt, nameB)
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
			return nil, fmt.Errorf("column %q: %w", nameB, err)
		}
		schema.Cols = append(schema.Cols, table.Column{Name: string(nameB), Type: typ})
		cols = append(cols, vec)
	}
	t := &table.Table{Schema: schema, Cols: cols}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// DecodeSchema reads only the headers of an encoded table, skipping column
// payloads; the controller uses it to learn MV schemas without paying a
// full decode.
func DecodeSchema(data []byte) (table.Schema, int, error) {
	if IsChunked(data) {
		return decodeSchemaChunked(data)
	}
	r := &reader{data: data}
	var m [4]byte
	if err := r.bytes(m[:]); err != nil || m != magic {
		return table.Schema{}, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	nCols, err := r.u32()
	if err != nil {
		return table.Schema{}, 0, err
	}
	nRows, err := r.u64()
	if err != nil {
		return table.Schema{}, 0, err
	}
	if nRows > math.MaxInt32 {
		return table.Schema{}, 0, fmt.Errorf("%w: absurd row count", ErrCorrupt)
	}
	var schema table.Schema
	for c := uint32(0); c < nCols; c++ {
		nameLen, err := r.u16()
		if err != nil {
			return table.Schema{}, 0, err
		}
		nameB := make([]byte, nameLen)
		if err := r.bytes(nameB); err != nil {
			return table.Schema{}, 0, err
		}
		typB, err := r.u8()
		if err != nil {
			return table.Schema{}, 0, err
		}
		if typB > uint8(table.Str) {
			return table.Schema{}, 0, fmt.Errorf("%w: unknown type %d", ErrCorrupt, typB)
		}
		if _, err := r.u8(); err != nil { // encoding byte
			return table.Schema{}, 0, err
		}
		payloadLen, err := r.u64()
		if err != nil {
			return table.Schema{}, 0, err
		}
		// Guard against payloadLen+4 wrapping around uint64.
		rem := uint64(len(r.data) - r.off)
		if rem < 4 || payloadLen > rem-4 {
			return table.Schema{}, 0, fmt.Errorf("%w: payload overruns buffer", ErrCorrupt)
		}
		r.off += int(payloadLen) + 4 // skip payload and checksum
		schema.Cols = append(schema.Cols, table.Column{Name: string(nameB), Type: table.Type(typB)})
	}
	return schema, int(nRows), nil
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

func (r *reader) bytes(dst []byte) error {
	if len(r.data)-r.off < len(dst) {
		return fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	copy(dst, r.data[r.off:])
	r.off += len(dst)
	return nil
}

func (r *reader) u8() (uint8, error) {
	var b [1]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u16() (uint16, error) {
	var b [2]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func (r *reader) u32() (uint32, error) {
	var b [4]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (r *reader) u64() (uint64, error) {
	var b [8]byte
	if err := r.bytes(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func writeU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

func writeU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}
