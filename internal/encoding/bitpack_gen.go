// Code generated by mkbitpack.go; DO NOT EDIT.

// The kernels here are the fast path of unpackRange and appendPacked in
// codecs.go: each moves whole groups of 8 values of one width, which fill
// exactly width bytes, with constant shifts and masks. The value-at-a-time
// loops in codecs.go handle everything else.

package encoding

import "encoding/binary"

// maxKernelWidth is the widest width with a kernel.
const maxKernelWidth = 32

// unpackGroups decodes whole 8-value groups of width-bit values from src
// into dst while a group's words lie within src, and returns how many
// values it decoded: a multiple of 8. 0 < width <= maxKernelWidth.
func unpackGroups(src []byte, dst []uint64, width int) int {
	switch width {
	case 1:
		return unpack1(src, dst)
	case 2:
		return unpack2(src, dst)
	case 3:
		return unpack3(src, dst)
	case 4:
		return unpack4(src, dst)
	case 5:
		return unpack5(src, dst)
	case 6:
		return unpack6(src, dst)
	case 7:
		return unpack7(src, dst)
	case 8:
		return unpack8(src, dst)
	case 9:
		return unpack9(src, dst)
	case 10:
		return unpack10(src, dst)
	case 11:
		return unpack11(src, dst)
	case 12:
		return unpack12(src, dst)
	case 13:
		return unpack13(src, dst)
	case 14:
		return unpack14(src, dst)
	case 15:
		return unpack15(src, dst)
	case 16:
		return unpack16(src, dst)
	case 17:
		return unpack17(src, dst)
	case 18:
		return unpack18(src, dst)
	case 19:
		return unpack19(src, dst)
	case 20:
		return unpack20(src, dst)
	case 21:
		return unpack21(src, dst)
	case 22:
		return unpack22(src, dst)
	case 23:
		return unpack23(src, dst)
	case 24:
		return unpack24(src, dst)
	case 25:
		return unpack25(src, dst)
	case 26:
		return unpack26(src, dst)
	case 27:
		return unpack27(src, dst)
	case 28:
		return unpack28(src, dst)
	case 29:
		return unpack29(src, dst)
	case 30:
		return unpack30(src, dst)
	case 31:
		return unpack31(src, dst)
	case 32:
		return unpack32(src, dst)
	}
	panic("encoding: no unpack kernel for this width")
}

// packGroups encodes len(vals)/8 whole groups of width-bit values into
// dst, which holds exactly width bytes per group. 0 < width <=
// maxKernelWidth.
func packGroups[T uint64 | int32](dst []byte, vals []T, width int) {
	switch width {
	case 1:
		pack1(dst, vals)
	case 2:
		pack2(dst, vals)
	case 3:
		pack3(dst, vals)
	case 4:
		pack4(dst, vals)
	case 5:
		pack5(dst, vals)
	case 6:
		pack6(dst, vals)
	case 7:
		pack7(dst, vals)
	case 8:
		pack8(dst, vals)
	case 9:
		pack9(dst, vals)
	case 10:
		pack10(dst, vals)
	case 11:
		pack11(dst, vals)
	case 12:
		pack12(dst, vals)
	case 13:
		pack13(dst, vals)
	case 14:
		pack14(dst, vals)
	case 15:
		pack15(dst, vals)
	case 16:
		pack16(dst, vals)
	case 17:
		pack17(dst, vals)
	case 18:
		pack18(dst, vals)
	case 19:
		pack19(dst, vals)
	case 20:
		pack20(dst, vals)
	case 21:
		pack21(dst, vals)
	case 22:
		pack22(dst, vals)
	case 23:
		pack23(dst, vals)
	case 24:
		pack24(dst, vals)
	case 25:
		pack25(dst, vals)
	case 26:
		pack26(dst, vals)
	case 27:
		pack27(dst, vals)
	case 28:
		pack28(dst, vals)
	case 29:
		pack29(dst, vals)
	case 30:
		pack30(dst, vals)
	case 31:
		pack31(dst, vals)
	case 32:
		pack32(dst, vals)
	default:
		panic("encoding: no pack kernel for this width")
	}
}

func unpack1(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1
		d[1] = w0 >> 1 & 0x1
		d[2] = w0 >> 2 & 0x1
		d[3] = w0 >> 3 & 0x1
		d[4] = w0 >> 4 & 0x1
		d[5] = w0 >> 5 & 0x1
		d[6] = w0 >> 6 & 0x1
		d[7] = w0 >> 7 & 0x1
		src, dst = src[1:], dst[8:]
	}
	return n
}

func pack1[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[1]byte)(dst)
		v0 := uint64(v[0]) & 0x1
		v1 := uint64(v[1]) & 0x1
		v2 := uint64(v[2]) & 0x1
		v3 := uint64(v[3]) & 0x1
		v4 := uint64(v[4]) & 0x1
		v5 := uint64(v[5]) & 0x1
		v6 := uint64(v[6]) & 0x1
		v7 := uint64(v[7]) & 0x1
		w0 := v0 | v1<<1 | v2<<2 | v3<<3 | v4<<4 | v5<<5 | v6<<6 | v7<<7
		d[0] = byte(w0)
		vals, dst = vals[8:], dst[1:]
	}
}

func unpack2(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3
		d[1] = w0 >> 2 & 0x3
		d[2] = w0 >> 4 & 0x3
		d[3] = w0 >> 6 & 0x3
		d[4] = w0 >> 8 & 0x3
		d[5] = w0 >> 10 & 0x3
		d[6] = w0 >> 12 & 0x3
		d[7] = w0 >> 14 & 0x3
		src, dst = src[2:], dst[8:]
	}
	return n
}

func pack2[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[2]byte)(dst)
		v0 := uint64(v[0]) & 0x3
		v1 := uint64(v[1]) & 0x3
		v2 := uint64(v[2]) & 0x3
		v3 := uint64(v[3]) & 0x3
		v4 := uint64(v[4]) & 0x3
		v5 := uint64(v[5]) & 0x3
		v6 := uint64(v[6]) & 0x3
		v7 := uint64(v[7]) & 0x3
		w0 := v0 | v1<<2 | v2<<4 | v3<<6 | v4<<8 | v5<<10 | v6<<12 | v7<<14
		binary.LittleEndian.PutUint16(d[0:], uint16(w0))
		vals, dst = vals[8:], dst[2:]
	}
}

func unpack3(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7
		d[1] = w0 >> 3 & 0x7
		d[2] = w0 >> 6 & 0x7
		d[3] = w0 >> 9 & 0x7
		d[4] = w0 >> 12 & 0x7
		d[5] = w0 >> 15 & 0x7
		d[6] = w0 >> 18 & 0x7
		d[7] = w0 >> 21 & 0x7
		src, dst = src[3:], dst[8:]
	}
	return n
}

func pack3[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[3]byte)(dst)
		v0 := uint64(v[0]) & 0x7
		v1 := uint64(v[1]) & 0x7
		v2 := uint64(v[2]) & 0x7
		v3 := uint64(v[3]) & 0x7
		v4 := uint64(v[4]) & 0x7
		v5 := uint64(v[5]) & 0x7
		v6 := uint64(v[6]) & 0x7
		v7 := uint64(v[7]) & 0x7
		w0 := v0 | v1<<3 | v2<<6 | v3<<9 | v4<<12 | v5<<15 | v6<<18 | v7<<21
		binary.LittleEndian.PutUint16(d[0:], uint16(w0))
		d[2] = byte(w0 >> 16)
		vals, dst = vals[8:], dst[3:]
	}
}

func unpack4(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xf
		d[1] = w0 >> 4 & 0xf
		d[2] = w0 >> 8 & 0xf
		d[3] = w0 >> 12 & 0xf
		d[4] = w0 >> 16 & 0xf
		d[5] = w0 >> 20 & 0xf
		d[6] = w0 >> 24 & 0xf
		d[7] = w0 >> 28 & 0xf
		src, dst = src[4:], dst[8:]
	}
	return n
}

func pack4[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[4]byte)(dst)
		v0 := uint64(v[0]) & 0xf
		v1 := uint64(v[1]) & 0xf
		v2 := uint64(v[2]) & 0xf
		v3 := uint64(v[3]) & 0xf
		v4 := uint64(v[4]) & 0xf
		v5 := uint64(v[5]) & 0xf
		v6 := uint64(v[6]) & 0xf
		v7 := uint64(v[7]) & 0xf
		w0 := v0 | v1<<4 | v2<<8 | v3<<12 | v4<<16 | v5<<20 | v6<<24 | v7<<28
		binary.LittleEndian.PutUint32(d[0:], uint32(w0))
		vals, dst = vals[8:], dst[4:]
	}
}

func unpack5(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1f
		d[1] = w0 >> 5 & 0x1f
		d[2] = w0 >> 10 & 0x1f
		d[3] = w0 >> 15 & 0x1f
		d[4] = w0 >> 20 & 0x1f
		d[5] = w0 >> 25 & 0x1f
		d[6] = w0 >> 30 & 0x1f
		d[7] = w0 >> 35 & 0x1f
		src, dst = src[5:], dst[8:]
	}
	return n
}

func pack5[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[5]byte)(dst)
		v0 := uint64(v[0]) & 0x1f
		v1 := uint64(v[1]) & 0x1f
		v2 := uint64(v[2]) & 0x1f
		v3 := uint64(v[3]) & 0x1f
		v4 := uint64(v[4]) & 0x1f
		v5 := uint64(v[5]) & 0x1f
		v6 := uint64(v[6]) & 0x1f
		v7 := uint64(v[7]) & 0x1f
		w0 := v0 | v1<<5 | v2<<10 | v3<<15 | v4<<20 | v5<<25 | v6<<30 | v7<<35
		binary.LittleEndian.PutUint32(d[0:], uint32(w0))
		d[4] = byte(w0 >> 32)
		vals, dst = vals[8:], dst[5:]
	}
}

func unpack6(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3f
		d[1] = w0 >> 6 & 0x3f
		d[2] = w0 >> 12 & 0x3f
		d[3] = w0 >> 18 & 0x3f
		d[4] = w0 >> 24 & 0x3f
		d[5] = w0 >> 30 & 0x3f
		d[6] = w0 >> 36 & 0x3f
		d[7] = w0 >> 42 & 0x3f
		src, dst = src[6:], dst[8:]
	}
	return n
}

func pack6[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[6]byte)(dst)
		v0 := uint64(v[0]) & 0x3f
		v1 := uint64(v[1]) & 0x3f
		v2 := uint64(v[2]) & 0x3f
		v3 := uint64(v[3]) & 0x3f
		v4 := uint64(v[4]) & 0x3f
		v5 := uint64(v[5]) & 0x3f
		v6 := uint64(v[6]) & 0x3f
		v7 := uint64(v[7]) & 0x3f
		w0 := v0 | v1<<6 | v2<<12 | v3<<18 | v4<<24 | v5<<30 | v6<<36 | v7<<42
		binary.LittleEndian.PutUint32(d[0:], uint32(w0))
		binary.LittleEndian.PutUint16(d[4:], uint16(w0>>32))
		vals, dst = vals[8:], dst[6:]
	}
}

func unpack7(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7f
		d[1] = w0 >> 7 & 0x7f
		d[2] = w0 >> 14 & 0x7f
		d[3] = w0 >> 21 & 0x7f
		d[4] = w0 >> 28 & 0x7f
		d[5] = w0 >> 35 & 0x7f
		d[6] = w0 >> 42 & 0x7f
		d[7] = w0 >> 49 & 0x7f
		src, dst = src[7:], dst[8:]
	}
	return n
}

func pack7[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[7]byte)(dst)
		v0 := uint64(v[0]) & 0x7f
		v1 := uint64(v[1]) & 0x7f
		v2 := uint64(v[2]) & 0x7f
		v3 := uint64(v[3]) & 0x7f
		v4 := uint64(v[4]) & 0x7f
		v5 := uint64(v[5]) & 0x7f
		v6 := uint64(v[6]) & 0x7f
		v7 := uint64(v[7]) & 0x7f
		w0 := v0 | v1<<7 | v2<<14 | v3<<21 | v4<<28 | v5<<35 | v6<<42 | v7<<49
		binary.LittleEndian.PutUint32(d[0:], uint32(w0))
		binary.LittleEndian.PutUint16(d[4:], uint16(w0>>32))
		d[6] = byte(w0 >> 48)
		vals, dst = vals[8:], dst[7:]
	}
}

func unpack8(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 8 && len(dst) >= 8; n += 8 {
		s := (*[8]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xff
		d[1] = w0 >> 8 & 0xff
		d[2] = w0 >> 16 & 0xff
		d[3] = w0 >> 24 & 0xff
		d[4] = w0 >> 32 & 0xff
		d[5] = w0 >> 40 & 0xff
		d[6] = w0 >> 48 & 0xff
		d[7] = w0 >> 56
		src, dst = src[8:], dst[8:]
	}
	return n
}

func pack8[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[8]byte)(dst)
		v0 := uint64(v[0]) & 0xff
		v1 := uint64(v[1]) & 0xff
		v2 := uint64(v[2]) & 0xff
		v3 := uint64(v[3]) & 0xff
		v4 := uint64(v[4]) & 0xff
		v5 := uint64(v[5]) & 0xff
		v6 := uint64(v[6]) & 0xff
		v7 := uint64(v[7]) & 0xff
		w0 := v0 | v1<<8 | v2<<16 | v3<<24 | v4<<32 | v5<<40 | v6<<48 | v7<<56
		binary.LittleEndian.PutUint64(d[0:], w0)
		vals, dst = vals[8:], dst[8:]
	}
}

func unpack9(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1ff
		d[1] = w0 >> 9 & 0x1ff
		d[2] = w0 >> 18 & 0x1ff
		d[3] = w0 >> 27 & 0x1ff
		d[4] = w0 >> 36 & 0x1ff
		d[5] = w0 >> 45 & 0x1ff
		d[6] = w0 >> 54 & 0x1ff
		d[7] = (w0>>63 | w1<<1) & 0x1ff
		src, dst = src[9:], dst[8:]
	}
	return n
}

func pack9[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[9]byte)(dst)
		v0 := uint64(v[0]) & 0x1ff
		v1 := uint64(v[1]) & 0x1ff
		v2 := uint64(v[2]) & 0x1ff
		v3 := uint64(v[3]) & 0x1ff
		v4 := uint64(v[4]) & 0x1ff
		v5 := uint64(v[5]) & 0x1ff
		v6 := uint64(v[6]) & 0x1ff
		v7 := uint64(v[7]) & 0x1ff
		w0 := v0 | v1<<9 | v2<<18 | v3<<27 | v4<<36 | v5<<45 | v6<<54 | v7<<63
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v7 >> 1
		d[8] = byte(w1)
		vals, dst = vals[8:], dst[9:]
	}
}

func unpack10(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3ff
		d[1] = w0 >> 10 & 0x3ff
		d[2] = w0 >> 20 & 0x3ff
		d[3] = w0 >> 30 & 0x3ff
		d[4] = w0 >> 40 & 0x3ff
		d[5] = w0 >> 50 & 0x3ff
		d[6] = (w0>>60 | w1<<4) & 0x3ff
		d[7] = w1 >> 6 & 0x3ff
		src, dst = src[10:], dst[8:]
	}
	return n
}

func pack10[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[10]byte)(dst)
		v0 := uint64(v[0]) & 0x3ff
		v1 := uint64(v[1]) & 0x3ff
		v2 := uint64(v[2]) & 0x3ff
		v3 := uint64(v[3]) & 0x3ff
		v4 := uint64(v[4]) & 0x3ff
		v5 := uint64(v[5]) & 0x3ff
		v6 := uint64(v[6]) & 0x3ff
		v7 := uint64(v[7]) & 0x3ff
		w0 := v0 | v1<<10 | v2<<20 | v3<<30 | v4<<40 | v5<<50 | v6<<60
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v6>>4 | v7<<6
		binary.LittleEndian.PutUint16(d[8:], uint16(w1))
		vals, dst = vals[8:], dst[10:]
	}
}

func unpack11(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7ff
		d[1] = w0 >> 11 & 0x7ff
		d[2] = w0 >> 22 & 0x7ff
		d[3] = w0 >> 33 & 0x7ff
		d[4] = w0 >> 44 & 0x7ff
		d[5] = (w0>>55 | w1<<9) & 0x7ff
		d[6] = w1 >> 2 & 0x7ff
		d[7] = w1 >> 13 & 0x7ff
		src, dst = src[11:], dst[8:]
	}
	return n
}

func pack11[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[11]byte)(dst)
		v0 := uint64(v[0]) & 0x7ff
		v1 := uint64(v[1]) & 0x7ff
		v2 := uint64(v[2]) & 0x7ff
		v3 := uint64(v[3]) & 0x7ff
		v4 := uint64(v[4]) & 0x7ff
		v5 := uint64(v[5]) & 0x7ff
		v6 := uint64(v[6]) & 0x7ff
		v7 := uint64(v[7]) & 0x7ff
		w0 := v0 | v1<<11 | v2<<22 | v3<<33 | v4<<44 | v5<<55
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v5>>9 | v6<<2 | v7<<13
		binary.LittleEndian.PutUint16(d[8:], uint16(w1))
		d[10] = byte(w1 >> 16)
		vals, dst = vals[8:], dst[11:]
	}
}

func unpack12(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xfff
		d[1] = w0 >> 12 & 0xfff
		d[2] = w0 >> 24 & 0xfff
		d[3] = w0 >> 36 & 0xfff
		d[4] = w0 >> 48 & 0xfff
		d[5] = (w0>>60 | w1<<4) & 0xfff
		d[6] = w1 >> 8 & 0xfff
		d[7] = w1 >> 20 & 0xfff
		src, dst = src[12:], dst[8:]
	}
	return n
}

func pack12[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[12]byte)(dst)
		v0 := uint64(v[0]) & 0xfff
		v1 := uint64(v[1]) & 0xfff
		v2 := uint64(v[2]) & 0xfff
		v3 := uint64(v[3]) & 0xfff
		v4 := uint64(v[4]) & 0xfff
		v5 := uint64(v[5]) & 0xfff
		v6 := uint64(v[6]) & 0xfff
		v7 := uint64(v[7]) & 0xfff
		w0 := v0 | v1<<12 | v2<<24 | v3<<36 | v4<<48 | v5<<60
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v5>>4 | v6<<8 | v7<<20
		binary.LittleEndian.PutUint32(d[8:], uint32(w1))
		vals, dst = vals[8:], dst[12:]
	}
}

func unpack13(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1fff
		d[1] = w0 >> 13 & 0x1fff
		d[2] = w0 >> 26 & 0x1fff
		d[3] = w0 >> 39 & 0x1fff
		d[4] = (w0>>52 | w1<<12) & 0x1fff
		d[5] = w1 >> 1 & 0x1fff
		d[6] = w1 >> 14 & 0x1fff
		d[7] = w1 >> 27 & 0x1fff
		src, dst = src[13:], dst[8:]
	}
	return n
}

func pack13[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[13]byte)(dst)
		v0 := uint64(v[0]) & 0x1fff
		v1 := uint64(v[1]) & 0x1fff
		v2 := uint64(v[2]) & 0x1fff
		v3 := uint64(v[3]) & 0x1fff
		v4 := uint64(v[4]) & 0x1fff
		v5 := uint64(v[5]) & 0x1fff
		v6 := uint64(v[6]) & 0x1fff
		v7 := uint64(v[7]) & 0x1fff
		w0 := v0 | v1<<13 | v2<<26 | v3<<39 | v4<<52
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v4>>12 | v5<<1 | v6<<14 | v7<<27
		binary.LittleEndian.PutUint32(d[8:], uint32(w1))
		d[12] = byte(w1 >> 32)
		vals, dst = vals[8:], dst[13:]
	}
}

func unpack14(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3fff
		d[1] = w0 >> 14 & 0x3fff
		d[2] = w0 >> 28 & 0x3fff
		d[3] = w0 >> 42 & 0x3fff
		d[4] = (w0>>56 | w1<<8) & 0x3fff
		d[5] = w1 >> 6 & 0x3fff
		d[6] = w1 >> 20 & 0x3fff
		d[7] = w1 >> 34 & 0x3fff
		src, dst = src[14:], dst[8:]
	}
	return n
}

func pack14[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[14]byte)(dst)
		v0 := uint64(v[0]) & 0x3fff
		v1 := uint64(v[1]) & 0x3fff
		v2 := uint64(v[2]) & 0x3fff
		v3 := uint64(v[3]) & 0x3fff
		v4 := uint64(v[4]) & 0x3fff
		v5 := uint64(v[5]) & 0x3fff
		v6 := uint64(v[6]) & 0x3fff
		v7 := uint64(v[7]) & 0x3fff
		w0 := v0 | v1<<14 | v2<<28 | v3<<42 | v4<<56
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v4>>8 | v5<<6 | v6<<20 | v7<<34
		binary.LittleEndian.PutUint32(d[8:], uint32(w1))
		binary.LittleEndian.PutUint16(d[12:], uint16(w1>>32))
		vals, dst = vals[8:], dst[14:]
	}
}

func unpack15(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7fff
		d[1] = w0 >> 15 & 0x7fff
		d[2] = w0 >> 30 & 0x7fff
		d[3] = w0 >> 45 & 0x7fff
		d[4] = (w0>>60 | w1<<4) & 0x7fff
		d[5] = w1 >> 11 & 0x7fff
		d[6] = w1 >> 26 & 0x7fff
		d[7] = w1 >> 41 & 0x7fff
		src, dst = src[15:], dst[8:]
	}
	return n
}

func pack15[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[15]byte)(dst)
		v0 := uint64(v[0]) & 0x7fff
		v1 := uint64(v[1]) & 0x7fff
		v2 := uint64(v[2]) & 0x7fff
		v3 := uint64(v[3]) & 0x7fff
		v4 := uint64(v[4]) & 0x7fff
		v5 := uint64(v[5]) & 0x7fff
		v6 := uint64(v[6]) & 0x7fff
		v7 := uint64(v[7]) & 0x7fff
		w0 := v0 | v1<<15 | v2<<30 | v3<<45 | v4<<60
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v4>>4 | v5<<11 | v6<<26 | v7<<41
		binary.LittleEndian.PutUint32(d[8:], uint32(w1))
		binary.LittleEndian.PutUint16(d[12:], uint16(w1>>32))
		d[14] = byte(w1 >> 48)
		vals, dst = vals[8:], dst[15:]
	}
}

func unpack16(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 16 && len(dst) >= 8; n += 8 {
		s := (*[16]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xffff
		d[1] = w0 >> 16 & 0xffff
		d[2] = w0 >> 32 & 0xffff
		d[3] = w0 >> 48
		d[4] = w1 & 0xffff
		d[5] = w1 >> 16 & 0xffff
		d[6] = w1 >> 32 & 0xffff
		d[7] = w1 >> 48
		src, dst = src[16:], dst[8:]
	}
	return n
}

func pack16[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[16]byte)(dst)
		v0 := uint64(v[0]) & 0xffff
		v1 := uint64(v[1]) & 0xffff
		v2 := uint64(v[2]) & 0xffff
		v3 := uint64(v[3]) & 0xffff
		v4 := uint64(v[4]) & 0xffff
		v5 := uint64(v[5]) & 0xffff
		v6 := uint64(v[6]) & 0xffff
		v7 := uint64(v[7]) & 0xffff
		w0 := v0 | v1<<16 | v2<<32 | v3<<48
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v4 | v5<<16 | v6<<32 | v7<<48
		binary.LittleEndian.PutUint64(d[8:], w1)
		vals, dst = vals[8:], dst[16:]
	}
}

func unpack17(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1ffff
		d[1] = w0 >> 17 & 0x1ffff
		d[2] = w0 >> 34 & 0x1ffff
		d[3] = (w0>>51 | w1<<13) & 0x1ffff
		d[4] = w1 >> 4 & 0x1ffff
		d[5] = w1 >> 21 & 0x1ffff
		d[6] = w1 >> 38 & 0x1ffff
		d[7] = (w1>>55 | w2<<9) & 0x1ffff
		src, dst = src[17:], dst[8:]
	}
	return n
}

func pack17[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[17]byte)(dst)
		v0 := uint64(v[0]) & 0x1ffff
		v1 := uint64(v[1]) & 0x1ffff
		v2 := uint64(v[2]) & 0x1ffff
		v3 := uint64(v[3]) & 0x1ffff
		v4 := uint64(v[4]) & 0x1ffff
		v5 := uint64(v[5]) & 0x1ffff
		v6 := uint64(v[6]) & 0x1ffff
		v7 := uint64(v[7]) & 0x1ffff
		w0 := v0 | v1<<17 | v2<<34 | v3<<51
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v3>>13 | v4<<4 | v5<<21 | v6<<38 | v7<<55
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v7 >> 9
		d[16] = byte(w2)
		vals, dst = vals[8:], dst[17:]
	}
}

func unpack18(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3ffff
		d[1] = w0 >> 18 & 0x3ffff
		d[2] = w0 >> 36 & 0x3ffff
		d[3] = (w0>>54 | w1<<10) & 0x3ffff
		d[4] = w1 >> 8 & 0x3ffff
		d[5] = w1 >> 26 & 0x3ffff
		d[6] = w1 >> 44 & 0x3ffff
		d[7] = (w1>>62 | w2<<2) & 0x3ffff
		src, dst = src[18:], dst[8:]
	}
	return n
}

func pack18[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[18]byte)(dst)
		v0 := uint64(v[0]) & 0x3ffff
		v1 := uint64(v[1]) & 0x3ffff
		v2 := uint64(v[2]) & 0x3ffff
		v3 := uint64(v[3]) & 0x3ffff
		v4 := uint64(v[4]) & 0x3ffff
		v5 := uint64(v[5]) & 0x3ffff
		v6 := uint64(v[6]) & 0x3ffff
		v7 := uint64(v[7]) & 0x3ffff
		w0 := v0 | v1<<18 | v2<<36 | v3<<54
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v3>>10 | v4<<8 | v5<<26 | v6<<44 | v7<<62
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v7 >> 2
		binary.LittleEndian.PutUint16(d[16:], uint16(w2))
		vals, dst = vals[8:], dst[18:]
	}
}

func unpack19(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7ffff
		d[1] = w0 >> 19 & 0x7ffff
		d[2] = w0 >> 38 & 0x7ffff
		d[3] = (w0>>57 | w1<<7) & 0x7ffff
		d[4] = w1 >> 12 & 0x7ffff
		d[5] = w1 >> 31 & 0x7ffff
		d[6] = (w1>>50 | w2<<14) & 0x7ffff
		d[7] = w2 >> 5 & 0x7ffff
		src, dst = src[19:], dst[8:]
	}
	return n
}

func pack19[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[19]byte)(dst)
		v0 := uint64(v[0]) & 0x7ffff
		v1 := uint64(v[1]) & 0x7ffff
		v2 := uint64(v[2]) & 0x7ffff
		v3 := uint64(v[3]) & 0x7ffff
		v4 := uint64(v[4]) & 0x7ffff
		v5 := uint64(v[5]) & 0x7ffff
		v6 := uint64(v[6]) & 0x7ffff
		v7 := uint64(v[7]) & 0x7ffff
		w0 := v0 | v1<<19 | v2<<38 | v3<<57
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v3>>7 | v4<<12 | v5<<31 | v6<<50
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v6>>14 | v7<<5
		binary.LittleEndian.PutUint16(d[16:], uint16(w2))
		d[18] = byte(w2 >> 16)
		vals, dst = vals[8:], dst[19:]
	}
}

func unpack20(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xfffff
		d[1] = w0 >> 20 & 0xfffff
		d[2] = w0 >> 40 & 0xfffff
		d[3] = (w0>>60 | w1<<4) & 0xfffff
		d[4] = w1 >> 16 & 0xfffff
		d[5] = w1 >> 36 & 0xfffff
		d[6] = (w1>>56 | w2<<8) & 0xfffff
		d[7] = w2 >> 12 & 0xfffff
		src, dst = src[20:], dst[8:]
	}
	return n
}

func pack20[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[20]byte)(dst)
		v0 := uint64(v[0]) & 0xfffff
		v1 := uint64(v[1]) & 0xfffff
		v2 := uint64(v[2]) & 0xfffff
		v3 := uint64(v[3]) & 0xfffff
		v4 := uint64(v[4]) & 0xfffff
		v5 := uint64(v[5]) & 0xfffff
		v6 := uint64(v[6]) & 0xfffff
		v7 := uint64(v[7]) & 0xfffff
		w0 := v0 | v1<<20 | v2<<40 | v3<<60
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v3>>4 | v4<<16 | v5<<36 | v6<<56
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v6>>8 | v7<<12
		binary.LittleEndian.PutUint32(d[16:], uint32(w2))
		vals, dst = vals[8:], dst[20:]
	}
}

func unpack21(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1fffff
		d[1] = w0 >> 21 & 0x1fffff
		d[2] = w0 >> 42 & 0x1fffff
		d[3] = (w0>>63 | w1<<1) & 0x1fffff
		d[4] = w1 >> 20 & 0x1fffff
		d[5] = w1 >> 41 & 0x1fffff
		d[6] = (w1>>62 | w2<<2) & 0x1fffff
		d[7] = w2 >> 19 & 0x1fffff
		src, dst = src[21:], dst[8:]
	}
	return n
}

func pack21[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[21]byte)(dst)
		v0 := uint64(v[0]) & 0x1fffff
		v1 := uint64(v[1]) & 0x1fffff
		v2 := uint64(v[2]) & 0x1fffff
		v3 := uint64(v[3]) & 0x1fffff
		v4 := uint64(v[4]) & 0x1fffff
		v5 := uint64(v[5]) & 0x1fffff
		v6 := uint64(v[6]) & 0x1fffff
		v7 := uint64(v[7]) & 0x1fffff
		w0 := v0 | v1<<21 | v2<<42 | v3<<63
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v3>>1 | v4<<20 | v5<<41 | v6<<62
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v6>>2 | v7<<19
		binary.LittleEndian.PutUint32(d[16:], uint32(w2))
		d[20] = byte(w2 >> 32)
		vals, dst = vals[8:], dst[21:]
	}
}

func unpack22(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3fffff
		d[1] = w0 >> 22 & 0x3fffff
		d[2] = (w0>>44 | w1<<20) & 0x3fffff
		d[3] = w1 >> 2 & 0x3fffff
		d[4] = w1 >> 24 & 0x3fffff
		d[5] = (w1>>46 | w2<<18) & 0x3fffff
		d[6] = w2 >> 4 & 0x3fffff
		d[7] = w2 >> 26 & 0x3fffff
		src, dst = src[22:], dst[8:]
	}
	return n
}

func pack22[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[22]byte)(dst)
		v0 := uint64(v[0]) & 0x3fffff
		v1 := uint64(v[1]) & 0x3fffff
		v2 := uint64(v[2]) & 0x3fffff
		v3 := uint64(v[3]) & 0x3fffff
		v4 := uint64(v[4]) & 0x3fffff
		v5 := uint64(v[5]) & 0x3fffff
		v6 := uint64(v[6]) & 0x3fffff
		v7 := uint64(v[7]) & 0x3fffff
		w0 := v0 | v1<<22 | v2<<44
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>20 | v3<<2 | v4<<24 | v5<<46
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v5>>18 | v6<<4 | v7<<26
		binary.LittleEndian.PutUint32(d[16:], uint32(w2))
		binary.LittleEndian.PutUint16(d[20:], uint16(w2>>32))
		vals, dst = vals[8:], dst[22:]
	}
}

func unpack23(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7fffff
		d[1] = w0 >> 23 & 0x7fffff
		d[2] = (w0>>46 | w1<<18) & 0x7fffff
		d[3] = w1 >> 5 & 0x7fffff
		d[4] = w1 >> 28 & 0x7fffff
		d[5] = (w1>>51 | w2<<13) & 0x7fffff
		d[6] = w2 >> 10 & 0x7fffff
		d[7] = w2 >> 33 & 0x7fffff
		src, dst = src[23:], dst[8:]
	}
	return n
}

func pack23[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[23]byte)(dst)
		v0 := uint64(v[0]) & 0x7fffff
		v1 := uint64(v[1]) & 0x7fffff
		v2 := uint64(v[2]) & 0x7fffff
		v3 := uint64(v[3]) & 0x7fffff
		v4 := uint64(v[4]) & 0x7fffff
		v5 := uint64(v[5]) & 0x7fffff
		v6 := uint64(v[6]) & 0x7fffff
		v7 := uint64(v[7]) & 0x7fffff
		w0 := v0 | v1<<23 | v2<<46
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>18 | v3<<5 | v4<<28 | v5<<51
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v5>>13 | v6<<10 | v7<<33
		binary.LittleEndian.PutUint32(d[16:], uint32(w2))
		binary.LittleEndian.PutUint16(d[20:], uint16(w2>>32))
		d[22] = byte(w2 >> 48)
		vals, dst = vals[8:], dst[23:]
	}
}

func unpack24(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 24 && len(dst) >= 8; n += 8 {
		s := (*[24]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xffffff
		d[1] = w0 >> 24 & 0xffffff
		d[2] = (w0>>48 | w1<<16) & 0xffffff
		d[3] = w1 >> 8 & 0xffffff
		d[4] = w1 >> 32 & 0xffffff
		d[5] = (w1>>56 | w2<<8) & 0xffffff
		d[6] = w2 >> 16 & 0xffffff
		d[7] = w2 >> 40
		src, dst = src[24:], dst[8:]
	}
	return n
}

func pack24[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[24]byte)(dst)
		v0 := uint64(v[0]) & 0xffffff
		v1 := uint64(v[1]) & 0xffffff
		v2 := uint64(v[2]) & 0xffffff
		v3 := uint64(v[3]) & 0xffffff
		v4 := uint64(v[4]) & 0xffffff
		v5 := uint64(v[5]) & 0xffffff
		v6 := uint64(v[6]) & 0xffffff
		v7 := uint64(v[7]) & 0xffffff
		w0 := v0 | v1<<24 | v2<<48
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>16 | v3<<8 | v4<<32 | v5<<56
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v5>>8 | v6<<16 | v7<<40
		binary.LittleEndian.PutUint64(d[16:], w2)
		vals, dst = vals[8:], dst[24:]
	}
}

func unpack25(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1ffffff
		d[1] = w0 >> 25 & 0x1ffffff
		d[2] = (w0>>50 | w1<<14) & 0x1ffffff
		d[3] = w1 >> 11 & 0x1ffffff
		d[4] = w1 >> 36 & 0x1ffffff
		d[5] = (w1>>61 | w2<<3) & 0x1ffffff
		d[6] = w2 >> 22 & 0x1ffffff
		d[7] = (w2>>47 | w3<<17) & 0x1ffffff
		src, dst = src[25:], dst[8:]
	}
	return n
}

func pack25[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[25]byte)(dst)
		v0 := uint64(v[0]) & 0x1ffffff
		v1 := uint64(v[1]) & 0x1ffffff
		v2 := uint64(v[2]) & 0x1ffffff
		v3 := uint64(v[3]) & 0x1ffffff
		v4 := uint64(v[4]) & 0x1ffffff
		v5 := uint64(v[5]) & 0x1ffffff
		v6 := uint64(v[6]) & 0x1ffffff
		v7 := uint64(v[7]) & 0x1ffffff
		w0 := v0 | v1<<25 | v2<<50
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>14 | v3<<11 | v4<<36 | v5<<61
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v5>>3 | v6<<22 | v7<<47
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v7 >> 17
		d[24] = byte(w3)
		vals, dst = vals[8:], dst[25:]
	}
}

func unpack26(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3ffffff
		d[1] = w0 >> 26 & 0x3ffffff
		d[2] = (w0>>52 | w1<<12) & 0x3ffffff
		d[3] = w1 >> 14 & 0x3ffffff
		d[4] = (w1>>40 | w2<<24) & 0x3ffffff
		d[5] = w2 >> 2 & 0x3ffffff
		d[6] = w2 >> 28 & 0x3ffffff
		d[7] = (w2>>54 | w3<<10) & 0x3ffffff
		src, dst = src[26:], dst[8:]
	}
	return n
}

func pack26[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[26]byte)(dst)
		v0 := uint64(v[0]) & 0x3ffffff
		v1 := uint64(v[1]) & 0x3ffffff
		v2 := uint64(v[2]) & 0x3ffffff
		v3 := uint64(v[3]) & 0x3ffffff
		v4 := uint64(v[4]) & 0x3ffffff
		v5 := uint64(v[5]) & 0x3ffffff
		v6 := uint64(v[6]) & 0x3ffffff
		v7 := uint64(v[7]) & 0x3ffffff
		w0 := v0 | v1<<26 | v2<<52
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>12 | v3<<14 | v4<<40
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4>>24 | v5<<2 | v6<<28 | v7<<54
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v7 >> 10
		binary.LittleEndian.PutUint16(d[24:], uint16(w3))
		vals, dst = vals[8:], dst[26:]
	}
}

func unpack27(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7ffffff
		d[1] = w0 >> 27 & 0x7ffffff
		d[2] = (w0>>54 | w1<<10) & 0x7ffffff
		d[3] = w1 >> 17 & 0x7ffffff
		d[4] = (w1>>44 | w2<<20) & 0x7ffffff
		d[5] = w2 >> 7 & 0x7ffffff
		d[6] = w2 >> 34 & 0x7ffffff
		d[7] = (w2>>61 | w3<<3) & 0x7ffffff
		src, dst = src[27:], dst[8:]
	}
	return n
}

func pack27[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[27]byte)(dst)
		v0 := uint64(v[0]) & 0x7ffffff
		v1 := uint64(v[1]) & 0x7ffffff
		v2 := uint64(v[2]) & 0x7ffffff
		v3 := uint64(v[3]) & 0x7ffffff
		v4 := uint64(v[4]) & 0x7ffffff
		v5 := uint64(v[5]) & 0x7ffffff
		v6 := uint64(v[6]) & 0x7ffffff
		v7 := uint64(v[7]) & 0x7ffffff
		w0 := v0 | v1<<27 | v2<<54
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>10 | v3<<17 | v4<<44
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4>>20 | v5<<7 | v6<<34 | v7<<61
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v7 >> 3
		binary.LittleEndian.PutUint16(d[24:], uint16(w3))
		d[26] = byte(w3 >> 16)
		vals, dst = vals[8:], dst[27:]
	}
}

func unpack28(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xfffffff
		d[1] = w0 >> 28 & 0xfffffff
		d[2] = (w0>>56 | w1<<8) & 0xfffffff
		d[3] = w1 >> 20 & 0xfffffff
		d[4] = (w1>>48 | w2<<16) & 0xfffffff
		d[5] = w2 >> 12 & 0xfffffff
		d[6] = (w2>>40 | w3<<24) & 0xfffffff
		d[7] = w3 >> 4 & 0xfffffff
		src, dst = src[28:], dst[8:]
	}
	return n
}

func pack28[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[28]byte)(dst)
		v0 := uint64(v[0]) & 0xfffffff
		v1 := uint64(v[1]) & 0xfffffff
		v2 := uint64(v[2]) & 0xfffffff
		v3 := uint64(v[3]) & 0xfffffff
		v4 := uint64(v[4]) & 0xfffffff
		v5 := uint64(v[5]) & 0xfffffff
		v6 := uint64(v[6]) & 0xfffffff
		v7 := uint64(v[7]) & 0xfffffff
		w0 := v0 | v1<<28 | v2<<56
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>8 | v3<<20 | v4<<48
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4>>16 | v5<<12 | v6<<40
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v6>>24 | v7<<4
		binary.LittleEndian.PutUint32(d[24:], uint32(w3))
		vals, dst = vals[8:], dst[28:]
	}
}

func unpack29(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x1fffffff
		d[1] = w0 >> 29 & 0x1fffffff
		d[2] = (w0>>58 | w1<<6) & 0x1fffffff
		d[3] = w1 >> 23 & 0x1fffffff
		d[4] = (w1>>52 | w2<<12) & 0x1fffffff
		d[5] = w2 >> 17 & 0x1fffffff
		d[6] = (w2>>46 | w3<<18) & 0x1fffffff
		d[7] = w3 >> 11 & 0x1fffffff
		src, dst = src[29:], dst[8:]
	}
	return n
}

func pack29[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[29]byte)(dst)
		v0 := uint64(v[0]) & 0x1fffffff
		v1 := uint64(v[1]) & 0x1fffffff
		v2 := uint64(v[2]) & 0x1fffffff
		v3 := uint64(v[3]) & 0x1fffffff
		v4 := uint64(v[4]) & 0x1fffffff
		v5 := uint64(v[5]) & 0x1fffffff
		v6 := uint64(v[6]) & 0x1fffffff
		v7 := uint64(v[7]) & 0x1fffffff
		w0 := v0 | v1<<29 | v2<<58
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>6 | v3<<23 | v4<<52
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4>>12 | v5<<17 | v6<<46
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v6>>18 | v7<<11
		binary.LittleEndian.PutUint32(d[24:], uint32(w3))
		d[28] = byte(w3 >> 32)
		vals, dst = vals[8:], dst[29:]
	}
}

func unpack30(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x3fffffff
		d[1] = w0 >> 30 & 0x3fffffff
		d[2] = (w0>>60 | w1<<4) & 0x3fffffff
		d[3] = w1 >> 26 & 0x3fffffff
		d[4] = (w1>>56 | w2<<8) & 0x3fffffff
		d[5] = w2 >> 22 & 0x3fffffff
		d[6] = (w2>>52 | w3<<12) & 0x3fffffff
		d[7] = w3 >> 18 & 0x3fffffff
		src, dst = src[30:], dst[8:]
	}
	return n
}

func pack30[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[30]byte)(dst)
		v0 := uint64(v[0]) & 0x3fffffff
		v1 := uint64(v[1]) & 0x3fffffff
		v2 := uint64(v[2]) & 0x3fffffff
		v3 := uint64(v[3]) & 0x3fffffff
		v4 := uint64(v[4]) & 0x3fffffff
		v5 := uint64(v[5]) & 0x3fffffff
		v6 := uint64(v[6]) & 0x3fffffff
		v7 := uint64(v[7]) & 0x3fffffff
		w0 := v0 | v1<<30 | v2<<60
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>4 | v3<<26 | v4<<56
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4>>8 | v5<<22 | v6<<52
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v6>>12 | v7<<18
		binary.LittleEndian.PutUint32(d[24:], uint32(w3))
		binary.LittleEndian.PutUint16(d[28:], uint16(w3>>32))
		vals, dst = vals[8:], dst[30:]
	}
}

func unpack31(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0x7fffffff
		d[1] = w0 >> 31 & 0x7fffffff
		d[2] = (w0>>62 | w1<<2) & 0x7fffffff
		d[3] = w1 >> 29 & 0x7fffffff
		d[4] = (w1>>60 | w2<<4) & 0x7fffffff
		d[5] = w2 >> 27 & 0x7fffffff
		d[6] = (w2>>58 | w3<<6) & 0x7fffffff
		d[7] = w3 >> 25 & 0x7fffffff
		src, dst = src[31:], dst[8:]
	}
	return n
}

func pack31[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[31]byte)(dst)
		v0 := uint64(v[0]) & 0x7fffffff
		v1 := uint64(v[1]) & 0x7fffffff
		v2 := uint64(v[2]) & 0x7fffffff
		v3 := uint64(v[3]) & 0x7fffffff
		v4 := uint64(v[4]) & 0x7fffffff
		v5 := uint64(v[5]) & 0x7fffffff
		v6 := uint64(v[6]) & 0x7fffffff
		v7 := uint64(v[7]) & 0x7fffffff
		w0 := v0 | v1<<31 | v2<<62
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2>>2 | v3<<29 | v4<<60
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4>>4 | v5<<27 | v6<<58
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v6>>6 | v7<<25
		binary.LittleEndian.PutUint32(d[24:], uint32(w3))
		binary.LittleEndian.PutUint16(d[28:], uint16(w3>>32))
		d[30] = byte(w3 >> 48)
		vals, dst = vals[8:], dst[31:]
	}
}

func unpack32(src []byte, dst []uint64) int {
	n := 0
	for ; len(src) >= 32 && len(dst) >= 8; n += 8 {
		s := (*[32]byte)(src)
		w0 := binary.LittleEndian.Uint64(s[0:])
		w1 := binary.LittleEndian.Uint64(s[8:])
		w2 := binary.LittleEndian.Uint64(s[16:])
		w3 := binary.LittleEndian.Uint64(s[24:])
		d := (*[8]uint64)(dst)
		d[0] = w0 & 0xffffffff
		d[1] = w0 >> 32
		d[2] = w1 & 0xffffffff
		d[3] = w1 >> 32
		d[4] = w2 & 0xffffffff
		d[5] = w2 >> 32
		d[6] = w3 & 0xffffffff
		d[7] = w3 >> 32
		src, dst = src[32:], dst[8:]
	}
	return n
}

func pack32[T uint64 | int32](dst []byte, vals []T) {
	for len(vals) >= 8 {
		v := (*[8]T)(vals)
		d := (*[32]byte)(dst)
		v0 := uint64(v[0]) & 0xffffffff
		v1 := uint64(v[1]) & 0xffffffff
		v2 := uint64(v[2]) & 0xffffffff
		v3 := uint64(v[3]) & 0xffffffff
		v4 := uint64(v[4]) & 0xffffffff
		v5 := uint64(v[5]) & 0xffffffff
		v6 := uint64(v[6]) & 0xffffffff
		v7 := uint64(v[7]) & 0xffffffff
		w0 := v0 | v1<<32
		binary.LittleEndian.PutUint64(d[0:], w0)
		w1 := v2 | v3<<32
		binary.LittleEndian.PutUint64(d[8:], w1)
		w2 := v4 | v5<<32
		binary.LittleEndian.PutUint64(d[16:], w2)
		w3 := v6 | v7<<32
		binary.LittleEndian.PutUint64(d[24:], w3)
		vals, dst = vals[8:], dst[32:]
	}
}
