// Format version 2: the self-describing chunked layout backed by the
// internal/encoding codec subsystem.
//
// Layout (all little-endian):
//
//	magic "SCF2" | u32 nCols | u64 nRows
//	per column:
//	  u16 nameLen | name | u8 type | u32 nChunks
//	  per chunk:
//	    u8 codec | u32 rows | u64 payloadLen | payload |
//	    u32 crc32(codec | rows | payload)
//
// The checksum covers the chunk header bytes as well as the payload, so a
// bit flip in a codec tag or row count fails loudly instead of decoding
// the payload under the wrong codec.
//
// Chunks carry their codec tag, so readers decode columns chunk by chunk
// without global state, and a reader can hold a table in compressed form
// (DecodeCompressed) paying decompression only when rows are needed.
// Version 2 is read-only since the compact v3 framing (v3.go) replaced it
// as the write format; v1 and v2 files keep decoding through the same
// entry points. See colfmt.go for the dispatch.
package colfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

var magicV2 = [4]byte{'S', 'C', 'F', '2'}

// minChunkFraming is the serialized size of an empty chunk. The encoding
// package owns the constant so Compressed.SizeBytes and this format can
// never drift apart.
const minChunkFraming = encoding.ChunkFraming

// chunkCRC checksums a chunk's header fields together with its payload.
func chunkCRC(codec byte, rows uint32, payload []byte) uint32 {
	var hdr [5]byte
	hdr[0] = codec
	binary.LittleEndian.PutUint32(hdr[1:], rows)
	crc := crc32.ChecksumIEEE(hdr[:])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// IsChunked reports whether data is a chunked-format file (v2 or v3) that
// DecodeCompressed can parse lazily. Legacy v1 files and unknown blobs
// report false.
func IsChunked(data []byte) bool {
	if len(data) < 4 {
		return false
	}
	m := [4]byte(data[:4])
	return m == magicV2 || m == magicV3
}

// DecodeCompressed parses a chunked file (v2 or v3) into its compressed
// representation without decompressing any chunk. Call Table on the result
// to pay the decode, or store it as-is (the Memory Catalog does).
func DecodeCompressed(data []byte) (*encoding.Compressed, error) {
	if len(data) >= 4 && [4]byte(data[:4]) == magicV3 {
		return decodeCompressedV3(data)
	}
	return decodeCompressedV2(data)
}

// decodeCompressedV2 parses a legacy fixed-framing v2 file.
func decodeCompressedV2(data []byte) (*encoding.Compressed, error) {
	r := &reader{data: data}
	var m [4]byte
	if err := r.bytes(m[:]); err != nil || m != magicV2 {
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
	ct := &encoding.Compressed{NRows: int(nRows64)}
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
		nChunks, err := r.u32()
		if err != nil {
			return nil, err
		}
		if uint64(nChunks)*minChunkFraming > uint64(len(r.data)-r.off) {
			return nil, fmt.Errorf("%w: chunk count overruns buffer", ErrCorrupt)
		}
		chunks := make([]encoding.Chunk, 0, nChunks)
		rows := 0
		for k := uint32(0); k < nChunks; k++ {
			codecB, err := r.u8()
			if err != nil {
				return nil, err
			}
			chRows, err := r.u32()
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
			if chunkCRC(codecB, chRows, payload) != sum {
				return nil, fmt.Errorf("%w: checksum mismatch in column %q", ErrCorrupt, nameB)
			}
			if chRows == 0 || uint64(chRows) > nRows64-uint64(rows) {
				return nil, fmt.Errorf("%w: chunk rows overrun column %q", ErrCorrupt, nameB)
			}
			chunks = append(chunks, encoding.Chunk{
				Codec: encoding.CodecID(codecB),
				Rows:  int(chRows),
				Data:  payload,
			})
			rows += int(chRows)
		}
		if rows != ct.NRows {
			return nil, fmt.Errorf("%w: column %q has %d rows, want %d", ErrCorrupt, nameB, rows, ct.NRows)
		}
		ct.Schema.Cols = append(ct.Schema.Cols, table.Column{Name: string(nameB), Type: table.Type(typB)})
		ct.Cols = append(ct.Cols, chunks)
	}
	if err := ct.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return ct, nil
}

// decodeChunked decodes a v2 or v3 file into a plain table: all of it, or
// with n > 0 its first n rows.
func decodeChunked(data []byte, n int) (*table.Table, error) {
	ct, err := DecodeCompressed(data)
	if err != nil {
		return nil, err
	}
	t, err := ct.HeadTable(n)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// DecodeHead is Decode for a reader of the first n rows: of a chunked file
// it returns exactly those, having decompressed no more than the chunks
// (and, of the last one, the prefix) that hold them. With n <= 0, and for a
// v1 file, which has no row index, it is Decode.
func DecodeHead(data []byte, n int) (*table.Table, error) {
	if IsChunked(data) {
		return decodeChunked(data, n)
	}
	return Decode(data)
}

// decodeSchemaV2 reads only the headers of a v2 file, skipping chunk
// payloads.
func decodeSchemaV2(data []byte) (table.Schema, int, error) {
	r := &reader{data: data}
	var m [4]byte
	if err := r.bytes(m[:]); err != nil || m != magicV2 {
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
		nChunks, err := r.u32()
		if err != nil {
			return table.Schema{}, 0, err
		}
		if uint64(nChunks)*minChunkFraming > uint64(len(r.data)-r.off) {
			return table.Schema{}, 0, fmt.Errorf("%w: chunk count overruns buffer", ErrCorrupt)
		}
		for k := uint32(0); k < nChunks; k++ {
			if _, err := r.u8(); err != nil { // codec tag
				return table.Schema{}, 0, err
			}
			if _, err := r.u32(); err != nil { // rows
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
		}
		schema.Cols = append(schema.Cols, table.Column{Name: string(nameB), Type: table.Type(typB)})
	}
	return schema, int(nRows), nil
}
