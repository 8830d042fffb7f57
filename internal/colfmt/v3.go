// The chunked format ("SCF3"): a self-describing layout backed by the
// internal/encoding codec subsystem, with compact varint framing.
//
// Layout (varints are unsigned LEB128, scalars little-endian):
//
//	magic "SCF3" | uvarint nCols | uvarint nRows
//	per column:
//	  uvarint nameLen | name | u8 type | uvarint nChunks
//	  per chunk:
//	    u8 codec | uvarint rows | uvarint payloadLen | payload |
//	    u32 crc32(codec | rows as u32 | payload)
//
// The checksum covers the chunk header fields as well as the payload, so a
// bit flip in a codec tag or row count fails loudly instead of decoding
// the payload under the wrong codec. Chunks carry their codec tag, so
// readers decode columns chunk by chunk without global state, and a reader
// can hold a table in compressed form (DecodeCompressed) paying
// decompression only when rows are needed. The varint framing is what
// encoding.(*Compressed).SizeBytes models: fixed-width headers inflated
// tiny MVs — a one-row COUNT(*) result grew from 8 payload bytes to ~40 on
// disk and, worse, in the Memory Catalog's accounting.
package colfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/shortcircuit-db/sc/internal/encoding"
	"github.com/shortcircuit-db/sc/internal/table"
)

var magicV3 = [4]byte{'S', 'C', 'F', '3'}

// chunkCRC checksums a chunk's header fields together with its payload.
func chunkCRC(codec byte, rows uint32, payload []byte) uint32 {
	var hdr [5]byte
	hdr[0] = codec
	binary.LittleEndian.PutUint32(hdr[1:], rows)
	crc := crc32.ChecksumIEEE(hdr[:])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// IsChunked reports whether data is a chunked-format file that
// DecodeCompressed can parse lazily. v1 files and unknown blobs report
// false.
func IsChunked(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == magicV3
}

// decodeChunked decodes a chunked file into a plain table: all of it, or
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

// EncodeTable compresses t with the given options and serializes it in the
// chunked format.
func EncodeTable(t *table.Table, opts encoding.Options) ([]byte, error) {
	ct, err := encoding.FromTable(t, opts)
	if err != nil {
		return nil, err
	}
	return EncodeCompressed(ct)
}

// EncodeCompressed serializes an already-compressed table in the chunked
// format without re-encoding any payload. The output length always equals
// ct.SizeBytes(), so catalog accounting matches the serialized size — and
// the output is written once into a buffer allocated at that size.
func EncodeCompressed(ct *encoding.Compressed) ([]byte, error) {
	if err := ct.Validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, ct.SizeBytes())
	buf = append(buf, magicV3[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(ct.Cols)))
	buf = binary.AppendUvarint(buf, uint64(ct.NRows))
	for ci, chunks := range ct.Cols {
		name := ct.Schema.Cols[ci].Name
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = append(buf, byte(ct.Schema.Cols[ci].Type))
		buf = binary.AppendUvarint(buf, uint64(len(chunks)))
		for _, ch := range chunks {
			buf = append(buf, byte(ch.Codec))
			buf = binary.AppendUvarint(buf, uint64(ch.Rows))
			buf = binary.AppendUvarint(buf, uint64(len(ch.Data)))
			buf = append(buf, ch.Data...)
			buf = binary.LittleEndian.AppendUint32(buf, chunkCRC(byte(ch.Codec), uint32(ch.Rows), ch.Data))
		}
	}
	return buf, nil
}

// DecodeCompressed parses a chunked file into its compressed
// representation without decompressing any chunk. Call Table on the result
// to pay the decode, or store it as-is (the Memory Catalog does).
func DecodeCompressed(data []byte) (*encoding.Compressed, error) {
	if !IsChunked(data) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := &reader{data: data, off: 4}
	nCols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nRows64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nRows64 > math.MaxInt32 {
		return nil, fmt.Errorf("%w: absurd row count %d", ErrCorrupt, nRows64)
	}
	ct := &encoding.Compressed{NRows: int(nRows64)}
	for c := uint64(0); c < nCols; c++ {
		nameLen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		nameB, err := r.next(nameLen)
		if err != nil {
			return nil, err
		}
		typB, err := r.u8()
		if err != nil {
			return nil, err
		}
		if typB > uint8(table.Str) {
			return nil, fmt.Errorf("%w: unknown type %d", ErrCorrupt, typB)
		}
		nChunks, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		// Compare by division: a hostile 64-bit chunk count must not wrap
		// the multiplication and slip past the bound into the make below.
		if nChunks > uint64(len(r.data)-r.off)/encoding.ChunkFramingMin {
			return nil, fmt.Errorf("%w: chunk count overruns buffer", ErrCorrupt)
		}
		chunks := make([]encoding.Chunk, 0, nChunks)
		rows := 0
		for k := uint64(0); k < nChunks; k++ {
			codecB, err := r.u8()
			if err != nil {
				return nil, err
			}
			chRows, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			payloadLen, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			payload, err := r.next(payloadLen)
			if err != nil {
				return nil, err
			}
			sum, err := r.u32()
			if err != nil {
				return nil, err
			}
			if chRows > math.MaxUint32 || chunkCRC(codecB, uint32(chRows), payload) != sum {
				return nil, fmt.Errorf("%w: checksum mismatch in column %q", ErrCorrupt, nameB)
			}
			if chRows == 0 || chRows > nRows64-uint64(rows) {
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

// uvarint reads an unsigned varint.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	r.off += n
	return v, nil
}
