//go:build ignore

// mkbitpack writes bitpack_gen.go: the unrolled kernels behind
// unpackRange and appendPacked, one per width from 1 to maxKernelWidth.
// A group of 8 width-bit values fills exactly width bytes, so a kernel
// moves whole groups with 64-bit little-endian word loads or stores and
// shifts and masks that are constants for its width (Lemire & Boytsov,
// "Decoding billions of integers per second through vectorization").
//
// Run it with `go generate ./internal/encoding`.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// maxWidth is the widest width given a kernel. It must equal
// maxKernelWidth in bitpack_gen.go, which this program writes.
const maxWidth = 32

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by mkbitpack.go; DO NOT EDIT.

// The kernels here are the fast path of unpackRange and appendPacked in
// codecs.go: each moves whole groups of 8 values of one width, which fill
// exactly width bytes, with constant shifts and masks. The value-at-a-time
// loops in codecs.go handle everything else.

package encoding

import "encoding/binary"

`)
	fmt.Fprintf(&b, "// maxKernelWidth is the widest width with a kernel.\nconst maxKernelWidth = %d\n\n", maxWidth)

	b.WriteString(`// unpackGroups decodes whole 8-value groups of width-bit values from src
// into dst while a group's words lie within src, and returns how many
// values it decoded: a multiple of 8. 0 < width <= maxKernelWidth.
func unpackGroups(src []byte, dst []uint64, width int) int {
	switch width {
`)
	for w := 1; w <= maxWidth; w++ {
		fmt.Fprintf(&b, "case %d:\nreturn unpack%d(src, dst)\n", w, w)
	}
	b.WriteString("}\npanic(\"encoding: no unpack kernel for this width\")\n}\n\n")

	b.WriteString(`// packGroups encodes len(vals)/8 whole groups of width-bit values into
// dst, which holds exactly width bytes per group. 0 < width <=
// maxKernelWidth.
func packGroups[T uint64 | int32](dst []byte, vals []T, width int) {
	switch width {
`)
	for w := 1; w <= maxWidth; w++ {
		fmt.Fprintf(&b, "case %d:\npack%d(dst, vals)\n", w, w)
	}
	b.WriteString("default:\npanic(\"encoding: no pack kernel for this width\")\n}\n}\n")

	for w := 1; w <= maxWidth; w++ {
		unpackKernel(&b, w)
		packKernel(&b, w)
	}

	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("formatting the generated kernels: %v", err)
	}
	if err := os.WriteFile("bitpack_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// mask is the constant keeping a value's low w bits.
func mask(w int) string { return fmt.Sprintf("%#x", uint64(1)<<w-1) }

// unpackKernel writes unpack<w>. Value j of a group occupies bits
// j*w … j*w+w-1, so it lies in word j*w/64 at a constant shift, spliced
// with the next word's low bits when it straddles the two.
func unpackKernel(b *bytes.Buffer, w int) {
	words := (w + 7) / 8 // the last may reach past the group's w bytes
	fmt.Fprintf(b, "\nfunc unpack%d(src []byte, dst []uint64) int {\n", w)
	b.WriteString("n := 0\n")
	fmt.Fprintf(b, "for ; len(src) >= %d && len(dst) >= 8; n += 8 {\n", 8*words)
	fmt.Fprintf(b, "s := (*[%d]byte)(src)\n", 8*words)
	for k := 0; k < words; k++ {
		fmt.Fprintf(b, "w%d := binary.LittleEndian.Uint64(s[%d:])\n", k, 8*k)
	}
	b.WriteString("d := (*[8]uint64)(dst)\n")
	for j := 0; j < 8; j++ {
		word, shift := j*w/64, j*w%64
		v := fmt.Sprintf("w%d", word)
		if shift > 0 {
			v = fmt.Sprintf("w%d>>%d", word, shift)
		}
		if shift+w > 64 {
			v = fmt.Sprintf("(%s | w%d<<%d)", v, word+1, 64-shift)
		}
		if shift+w != 64 {
			v += " & " + mask(w)
		}
		fmt.Fprintf(b, "d[%d] = %s\n", j, v)
	}
	fmt.Fprintf(b, "src, dst = src[%d:], dst[8:]\n}\nreturn n\n}\n", w)
}

// packKernel writes pack<w>: each word ORs in the values that start in it
// and the high bits of one that straddles into it, and the group's last,
// partial word is stored 4, 2 and 1 bytes at a time.
func packKernel(b *bytes.Buffer, w int) {
	fmt.Fprintf(b, "\nfunc pack%d[T uint64 | int32](dst []byte, vals []T) {\n", w)
	b.WriteString("for len(vals) >= 8 {\n")
	b.WriteString("v := (*[8]T)(vals)\n")
	fmt.Fprintf(b, "d := (*[%d]byte)(dst)\n", w)
	for j := 0; j < 8; j++ {
		fmt.Fprintf(b, "v%d := uint64(v[%d]) & %s\n", j, j, mask(w))
	}
	words := (w + 7) / 8
	for k := 0; k < words; k++ {
		var terms []string
		for j := 0; j < 8; j++ {
			lo, hi := j*w, j*w+w // bits lo … hi-1
			switch {
			case lo/64 == k && lo%64 == 0:
				terms = append(terms, fmt.Sprintf("v%d", j))
			case lo/64 == k:
				terms = append(terms, fmt.Sprintf("v%d<<%d", j, lo%64))
			case lo/64 == k-1 && hi > 64*k:
				terms = append(terms, fmt.Sprintf("v%d>>%d", j, 64*k-lo))
			}
		}
		fmt.Fprintf(b, "w%d := %s\n", k, strings.Join(terms, " | "))
		if rest := w - 8*k; rest >= 8 {
			fmt.Fprintf(b, "binary.LittleEndian.PutUint64(d[%d:], w%d)\n", 8*k, k)
		} else {
			storeTail(b, k, rest)
		}
	}
	fmt.Fprintf(b, "vals, dst = vals[8:], dst[%d:]\n}\n}\n", w)
}

// storeTail stores the low rest (< 8) bytes of word k at byte 8k.
func storeTail(b *bytes.Buffer, k, rest int) {
	at, shift := 8*k, 0
	for _, size := range []int{4, 2, 1} {
		if rest < size {
			continue
		}
		v := fmt.Sprintf("w%d", k)
		if shift > 0 {
			v = fmt.Sprintf("w%d>>%d", k, shift)
		}
		switch size {
		case 4:
			fmt.Fprintf(b, "binary.LittleEndian.PutUint32(d[%d:], uint32(%s))\n", at, v)
		case 2:
			fmt.Fprintf(b, "binary.LittleEndian.PutUint16(d[%d:], uint16(%s))\n", at, v)
		case 1:
			fmt.Fprintf(b, "d[%d] = byte(%s)\n", at, v)
		}
		at, shift, rest = at+size, shift+8*size, rest-size
	}
}
