package xcompress

// The zero-run codec ships a buffer of 32-bit words as the runs of all-zero
// words it contains plus everything else verbatim. It is built for the sparse
// half of the paper's Fig. 5 contrast: a float32 matrix that is ~98% +0.0
// encodes by skipping its zeros 64 bytes per step and decodes by clearing the
// whole window once and writing back only the literal words, into fewer bytes
// than deflate needs to spell the same runs as length-258 matches. It finds
// nothing else — no repeats, no entropy coding — so appendZero declines any
// payload it does not shrink below SkipRatio and AppendEncode hands that
// payload to deflate.
//
// Wire frame: tagZero, a uvarint of the decoded length, then sequences
//
//	uvarint zero-words | uvarint literal-words | literal bytes
//
// until the decoded length's whole words are covered, then its len%4 tail
// bytes verbatim. Words are compared bitwise (−0.0 and NaNs are literals), a
// literal run ends only at two or more consecutive zero words (a lone zero
// word costs less as a literal than as a sequence), and only the first
// sequence can have no zeros and only the last no literals. The decoder checks
// the decoded length against dst before it clears dst's whole words, and
// every count against what is left of dst and of the body before it writes
// that sequence's literals.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// nonzero is 1 when v is not zero and 0 when it is, computed without a branch.
func nonzero(v uint64) uint64 { return (v | -v) >> 63 }

// zeroRun reports how many leading bytes of b (a whole number of words) are
// all-zero words. It skips 64 bytes per step. In the first block that is not
// all zero it finds the first nonzero word without a branch: the lowest set
// bit of a mask of the block's eight nonzero loads names the load, and that
// load's low half says which of its two words it is. Only the last 60 bytes
// of b are scanned a load at a time.
func zeroRun(b []byte) int {
	n := len(b)
	for ; len(b) >= 64; b = b[64:] {
		v0, v1 := binary.LittleEndian.Uint64(b[0:]), binary.LittleEndian.Uint64(b[8:])
		v2, v3 := binary.LittleEndian.Uint64(b[16:]), binary.LittleEndian.Uint64(b[24:])
		v4, v5 := binary.LittleEndian.Uint64(b[32:]), binary.LittleEndian.Uint64(b[40:])
		v6, v7 := binary.LittleEndian.Uint64(b[48:]), binary.LittleEndian.Uint64(b[56:])
		if v0|v1|v2|v3|v4|v5|v6|v7 == 0 {
			continue
		}
		mask := nonzero(v0) | nonzero(v1)<<1 | nonzero(v2)<<2 | nonzero(v3)<<3 |
			nonzero(v4)<<4 | nonzero(v5)<<5 | nonzero(v6)<<6 | nonzero(v7)<<7
		at := 8 * (bits.TrailingZeros64(mask) & 7)
		lowZero := (uint64(binary.LittleEndian.Uint32(b[at:])) - 1) >> 63
		return n - len(b) + at + 4*int(lowZero)
	}
	for len(b) >= 8 && binary.LittleEndian.Uint64(b) == 0 {
		b = b[8:]
	}
	if len(b) >= 4 && binary.LittleEndian.Uint32(b) == 0 {
		b = b[4:]
	}
	return n - len(b)
}

// literalRun reports how many leading bytes of b (a whole number of words)
// come before the first pair of zero words, or len(b) when there is none.
func literalRun(b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		v := binary.LittleEndian.Uint64(b[n:])
		switch {
		case v == 0:
			return n
		case v>>32 == 0: // the second word is zero: a pair may start there
			n += 4
		default:
			n += 8
		}
	}
	return len(b)
}

// appendZero appends src's zero-run frame to dst, or reports false (and
// returns dst at its old length) as soon as the frame's body is bound to
// exceed SkipRatio of src.
func appendZero(dst, src []byte) ([]byte, bool) {
	start := len(dst)
	limit := start + 1 + int(SkipRatio*float64(len(src)))
	dst = append(dst, tagZero)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	words := src[:len(src)&^3]
	for p := 0; p < len(words); {
		z := zeroRun(words[p:])
		p += z
		l := literalRun(words[p:])
		if zw, lw := z/4, l/4; zw|lw < 0x80 { // both uvarints are one byte
			dst = append(dst, byte(zw), byte(lw))
		} else {
			dst = binary.AppendUvarint(dst, uint64(zw))
			dst = binary.AppendUvarint(dst, uint64(lw))
		}
		if len(dst)+l > limit {
			return dst[:start], false
		}
		dst = append(dst, words[p:p+l]...)
		p += l
	}
	dst = append(dst, src[len(words):]...)
	if len(dst) > limit {
		return dst[:start], false
	}
	return dst, true
}

// decodeZero decodes a zero-run frame's body (tag stripped) into dst, writing
// every byte of it: a chunk window may hold anything, so once the header
// matches dst it clears dst's whole words and then writes only the literals.
func decodeZero(body, dst []byte) error {
	malformed := func(what string) error {
		return fmt.Errorf("xcompress: zero-run frame %s", what)
	}
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return malformed("has a truncated header")
	}
	if n != uint64(len(dst)) {
		return fmt.Errorf("xcompress: zero-run frame holds %d bytes, want %d", n, len(dst))
	}
	body = body[k:]
	words := dst[:len(dst)&^3]
	clear(words)
	for d := 0; d < len(words); {
		var z, l uint64
		if len(body) >= 2 && body[0]|body[1] < 0x80 { // two one-byte counts
			z, l = uint64(body[0]), uint64(body[1])
			body = body[2:]
		} else {
			if z, k = binary.Uvarint(body); k <= 0 {
				return malformed("has a truncated zero count")
			}
			body = body[k:]
			if l, k = binary.Uvarint(body); k <= 0 {
				return malformed("has a truncated literal count")
			}
			body = body[k:]
		}
		left := uint64(len(words)-d) / 4
		switch {
		case z|l == 0:
			return malformed("has an empty sequence")
		case z > left || l > left-z:
			return malformed("overruns the decoded length")
		case l > uint64(len(body))/4:
			return malformed("has literals past its end")
		}
		d += int(z) * 4
		if l == 1 {
			*(*[4]byte)(words[d:]) = [4]byte(body)
			d += 4
			body = body[4:]
			continue
		}
		lb := int(l) * 4
		copy(words[d:d+lb], body)
		d += lb
		body = body[lb:]
	}
	if len(body) != len(dst)-len(words) {
		return malformed(fmt.Sprintf("ends with %d bytes, want a %d-byte tail", len(body), len(dst)-len(words)))
	}
	copy(dst[len(words):], body)
	return nil
}
