package xcompress

// The fast codec is an LZ4-class block compressor in pure Go: byte-oriented
// LZ77 with a greedy hash-table matcher, no entropy coding. It trades ratio
// for speed — on compressible payloads it runs an order of magnitude faster
// than deflate at a worse ratio, which is exactly the right trade when the
// transfer pipeline is compression-bound rather than wire-bound (the sparse
// half of the paper's Fig. 5 contrast). The adaptive per-chunk verdict
// (chunkVerdict) picks between raw, fast, and deflate per chunk.
//
// Wire frame: tagFast, then a uvarint of the decoded length, then a
// sequence stream. Each sequence is
//
//	token | [literal-length extension] | literals | offset16le | [match-length extension]
//
// with the token's high nibble holding the literal count (15 = extension
// bytes follow, LZ4-style: 255-bytes then a final byte < 255) and the low
// nibble holding matchLength-4. The final sequence of a stream carries only
// literals (no offset, low nibble 0). Matches are at least fastMinMatch
// bytes and offsets fit 16 bits. The decoder bounds-checks every step, so a
// corrupted frame fails decoding instead of corrupting memory.

import (
	"encoding/binary"
	"fmt"
)

const (
	// fastMinMatch is the shortest back-reference worth a 3-byte sequence
	// header (token + offset).
	fastMinMatch = 4
	// fastHashLog sizes the match table: 1<<13 entries (32 KiB) covers a
	// 1 MiB transfer chunk well and lives on the encoder's stack.
	fastHashLog = 13
	// fastMaxOffset is the back-reference window (16-bit offsets).
	fastMaxOffset = 65535
	// fastMinInput is the smallest payload the encoder attempts: below
	// this the sequence overhead cannot win.
	fastMinInput = 16
	// fastTailLiterals: the last bytes of a block always ship as literals,
	// so the match loop never needs to bounds-check inside its 4-byte loads.
	fastTailLiterals = 12
)

// fastHash maps a 4-byte group to a table slot (Knuth multiplicative hash).
func fastHash(v uint32) uint32 { return (v * 2654435761) >> (32 - fastHashLog) }

// appendFastLen appends an LZ4-style length extension (sequence of 255s,
// then a final byte < 255).
func appendFastLen(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// appendFastSeq appends one sequence: literals src[anchor:s] plus a match of
// mlen bytes at the given offset (mlen 0 means the final literal-only
// sequence).
func appendFastSeq(dst, lit []byte, offset, mlen int) []byte {
	litLen := len(lit)
	token := byte(0)
	if litLen >= 15 {
		token = 15 << 4
	} else {
		token = byte(litLen) << 4
	}
	ml := 0
	if mlen > 0 {
		ml = mlen - fastMinMatch
		if ml >= 15 {
			token |= 15
		} else {
			token |= byte(ml)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendFastLen(dst, litLen-15)
	}
	dst = append(dst, lit...)
	if mlen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if ml >= 15 {
			dst = appendFastLen(dst, ml-15)
		}
	}
	return dst
}

// appendFastBody greedily compresses src, appending the sequence stream to
// dst. It reports ok=false (and returns dst unmodified in length) when src
// is too small or the output would not beat the raw frame by a safety
// margin — the caller then falls back to a raw frame.
func appendFastBody(dst, src []byte) ([]byte, bool) {
	if len(src) < fastMinInput {
		return dst, false
	}
	base := len(dst)
	// Must save at least 1/32 of the payload, or shipping raw is cheaper:
	// a decode pass over break-even output is pure waste.
	limit := base + len(src) - len(src)>>5
	var table [1 << fastHashLog]int32 // position+1; 0 = empty

	s, anchor := 0, 0
	mflimit := len(src) - fastTailLiterals
	for s < mflimit {
		v := binary.LittleEndian.Uint32(src[s:])
		h := fastHash(v)
		cand := int(table[h]) - 1
		table[h] = int32(s + 1)
		if cand < 0 || s-cand > fastMaxOffset || binary.LittleEndian.Uint32(src[cand:]) != v {
			s++
			continue
		}
		// Extend the match; stop short of the tail so the final literals
		// are never empty.
		mlen := fastMinMatch
		maxLen := len(src) - fastTailLiterals + (fastTailLiterals - 5) - s
		for mlen < maxLen && src[cand+mlen] == src[s+mlen] {
			mlen++
		}
		dst = appendFastSeq(dst, src[anchor:s], s-cand, mlen)
		if len(dst) > limit {
			return dst[:base], false
		}
		// Seed the table from inside the match so runs keep matching.
		if s+mlen < mflimit {
			mid := s + mlen - 2
			table[fastHash(binary.LittleEndian.Uint32(src[mid:]))] = int32(mid + 1)
		}
		s += mlen
		anchor = s
	}
	dst = appendFastSeq(dst, src[anchor:], 0, 0)
	if len(dst) > limit {
		return dst[:base], false
	}
	return dst, true
}

// fastDecodeBody reverses appendFastBody: body is the sequence stream (tag
// and length varint already stripped), dst exactly the decoded length. Every
// read and write is bounds-checked; malformed input returns an error.
func fastDecodeBody(body, dst []byte) error {
	malformed := func(what string) error {
		return fmt.Errorf("xcompress: fast frame %s", what)
	}
	s, d := 0, 0
	readLen := func(base int) (int, error) {
		n := base
		for {
			if s >= len(body) {
				return 0, malformed("truncated length")
			}
			b := body[s]
			s++
			n += int(b)
			if b != 255 {
				return n, nil
			}
			if n > len(dst)+255 {
				return 0, malformed("length overflow")
			}
		}
	}
	for s < len(body) {
		token := body[s]
		s++
		lit := int(token >> 4)
		if lit == 15 {
			var err error
			if lit, err = readLen(15); err != nil {
				return err
			}
		}
		if s+lit > len(body) || d+lit > len(dst) {
			return malformed("literal overrun")
		}
		copy(dst[d:], body[s:s+lit])
		s += lit
		d += lit
		if s == len(body) {
			break // final literal-only sequence
		}
		if s+2 > len(body) {
			return malformed("truncated offset")
		}
		offset := int(body[s]) | int(body[s+1])<<8
		s += 2
		if offset == 0 || offset > d {
			return malformed("bad offset")
		}
		mlen := int(token & 15)
		if mlen == 15 {
			var err error
			if mlen, err = readLen(15); err != nil {
				return err
			}
		}
		mlen += fastMinMatch
		if d+mlen > len(dst) {
			return malformed("match overrun")
		}
		m := d - offset
		if offset >= mlen {
			copy(dst[d:d+mlen], dst[m:m+mlen])
			d += mlen
		} else {
			// Overlapping match (run encoding): byte-at-a-time preserves
			// the self-referential semantics.
			for i := 0; i < mlen; i++ {
				dst[d] = dst[m]
				d++
				m++
			}
		}
	}
	if d != len(dst) {
		return fmt.Errorf("xcompress: fast frame decodes to %d bytes, want %d", d, len(dst))
	}
	return nil
}

// appendFast appends src's fast frame to dst, or its raw frame when LZ77
// finds too little to pay for a decode pass or (a payload of a few dozen
// bytes) the length header eats the saving — so the wire never exceeds
// len(src)+1.
func appendFast(dst, src []byte) []byte {
	start := len(dst)
	dst = append(dst, tagFast)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	out, ok := appendFastBody(dst, src)
	if !ok || len(out)-start > len(src)+1 {
		return appendRaw(dst[:start], src)
	}
	return out
}

// decodeFast decodes a fast frame's body (tag stripped) into dst.
func decodeFast(body, dst []byte) error {
	rawLen, n := binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("xcompress: fast frame truncated header")
	}
	if rawLen != uint64(len(dst)) {
		return fmt.Errorf("xcompress: fast frame holds %d bytes, want %d", rawLen, len(dst))
	}
	return fastDecodeBody(body[n:], dst)
}
