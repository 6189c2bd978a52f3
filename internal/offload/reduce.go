package offload

import (
	"fmt"

	"ompcloud/internal/data"
)

// combine folds one per-tile output copy (src) into the accumulator (dst)
// using the declared reduction — the driver-side half of Eq. 8/9.
func combine(op ReduceOp, dst, src []byte) error {
	if len(dst) != len(src) {
		return fmt.Errorf("offload: reduction size mismatch %d vs %d", len(dst), len(src))
	}
	switch op {
	case ReduceBitOr:
		for i := range src {
			dst[i] |= src[i]
		}
	case ReduceSumF32:
		for i := 0; i < len(src); i += data.FloatSize {
			data.PutFloat(dst, i/data.FloatSize,
				data.GetFloat(dst, i/data.FloatSize)+data.GetFloat(src, i/data.FloatSize))
		}
	case ReduceMaxF32:
		for i := 0; i < len(src); i += data.FloatSize {
			a := data.GetFloat(dst, i/data.FloatSize)
			b := data.GetFloat(src, i/data.FloatSize)
			if b > a {
				data.PutFloat(dst, i/data.FloatSize, b)
			}
		}
	case ReduceMinF32:
		for i := 0; i < len(src); i += data.FloatSize {
			a := data.GetFloat(dst, i/data.FloatSize)
			b := data.GetFloat(src, i/data.FloatSize)
			if b < a {
				data.PutFloat(dst, i/data.FloatSize, b)
			}
		}
	default:
		return fmt.Errorf("offload: cannot combine with reduction %v", op)
	}
	return nil
}

// reduceIdentity initializes an accumulator for the reduction.
func reduceIdentity(op ReduceOp, n int) []byte {
	buf := make([]byte, n)
	setIdentity(op, buf)
	return buf
}

// setIdentity overwrites buf with the reduction's identity. Bit-OR, sum and a
// partitioned output (ReduceNone) start from zero bytes; max/min start from
// -inf/+inf in every lane (representable stand-ins that survive float32
// math).
func setIdentity(op ReduceOp, buf []byte) {
	switch op {
	case ReduceMaxF32:
		for i := 0; i < len(buf)/data.FloatSize; i++ {
			data.PutFloat(buf, i, -1e38)
		}
	case ReduceMinF32:
		for i := 0; i < len(buf)/data.FloatSize; i++ {
			data.PutFloat(buf, i, 1e38)
		}
	default:
		clear(buf)
	}
}

// tileWindow slices the byte window of tile iterations [lo, hi) out of a
// partitioned buffer.
func tileWindow(b *Buffer, lo, hi int64) []byte {
	return b.Data[lo*b.BytesPerIter : hi*b.BytesPerIter]
}
