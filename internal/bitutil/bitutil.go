// Package bitutil provides the small integer primitives that branch
// predictors are made of: saturating signed/unsigned counters, sign and
// centering helpers, and power-of-two mask arithmetic.
//
// Conventions follow the branch-prediction literature: an n-bit signed
// prediction counter takes values in [-2^(n-1), 2^(n-1)-1]; its sign bit
// (value >= 0 meaning taken) is the prediction; the "centered" value of a
// counter c is 2c+1, which is symmetric around zero and never zero, as used
// by GEHL-style adder trees (Seznec, ISCA 2005).
package bitutil

// The counter helpers below are written in conditional-move form (compute
// both outcomes, select with a comparison) rather than with taken-dependent
// branches: the direction of a simulated branch is close to a coin flip, so
// a branch on it in the per-branch hot path mispredicts half the time.

// SatIncSigned increments a signed counter saturating at max for the given
// width in bits. Width must be in [1, 63].
func SatIncSigned(v int32, bits uint) int32 {
	max := int32(1)<<(bits-1) - 1
	d := int32(0)
	if v < max {
		d = 1
	}
	return v + d
}

// SatDecSigned decrements a signed counter saturating at min for the given
// width in bits.
func SatDecSigned(v int32, bits uint) int32 {
	min := -(int32(1) << (bits - 1))
	d := int32(0)
	if v > min {
		d = 1
	}
	return v - d
}

// SatUpdateSigned moves a signed counter toward taken (up) or not-taken
// (down), saturating at the bounds for the given width.
func SatUpdateSigned(v int32, taken bool, bits uint) int32 {
	max := int32(1)<<(bits-1) - 1
	d := int32(-1)
	if taken {
		d = 1
	}
	nv := v + d
	if nv > max {
		nv = max
	}
	if nv < -max-1 {
		nv = -max - 1
	}
	return nv
}

// SatIncUnsigned increments an unsigned counter saturating at 2^bits-1.
func SatIncUnsigned(v uint32, bits uint) uint32 {
	max := uint32(1)<<bits - 1
	d := uint32(0)
	if v < max {
		d = 1
	}
	return v + d
}

// SatDecUnsigned decrements an unsigned counter saturating at zero.
func SatDecUnsigned(v uint32) uint32 {
	d := uint32(0)
	if v > 0 {
		d = 1
	}
	return v - d
}

// SignedMax returns the largest value of a signed counter of the given width.
func SignedMax(bits uint) int32 { return int32(1)<<(bits-1) - 1 }

// SignedMin returns the smallest value of a signed counter of the given width.
func SignedMin(bits uint) int32 { return -(int32(1) << (bits - 1)) }

// TakenSign reports the prediction encoded by a signed counter: values >= 0
// predict taken.
func TakenSign(v int32) bool { return v >= 0 }

// Centered returns 2v+1, the centered counter value used in adder trees.
func Centered(v int32) int32 { return 2*v + 1 }

// IsWeak reports whether a signed counter holds one of the two weakest
// states (-1 or 0), i.e. the confidence of its prediction is minimal.
func IsWeak(v int32) bool { return v == 0 || v == -1 }

// WeakTaken and WeakNotTaken are the canonical initialization values for a
// newly allocated signed prediction counter.
const (
	WeakTaken    int32 = 0
	WeakNotTaken int32 = -1
)

// Mask returns a mask with the low n bits set. n must be in [0, 64].
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0, and 0 for v <= 0.
func Log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// CeilPow2 returns the smallest power of two >= v (v > 0).
func CeilPow2(v int) int {
	p := 1
	for p < v {
		p <<= 1
	}
	return p
}

// Mix64 is a strong 64-bit finalizer (Stafford variant 13 of the murmur3
// finalizer), used throughout for index hashing where the paper's exact
// hash is unspecified.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
