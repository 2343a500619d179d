package core

import (
	"math"
	"sort"
)

// radixSortCutoff is the slice length below which sortFloats falls back to
// the stdlib sort: an LSD radix pass has a fixed cost (key mapping, an 8KiB
// histogram, write-back) that only amortizes once the buffer is a few
// hundred elements. The value was chosen by BenchmarkSortFloats (see
// docs/PERFORMANCE.md): at n=256 the stdlib sort is still ~1.4x faster,
// at n=512 radix already wins (~1.2x) and the gap widens to ~4x by n=4096.
const radixSortCutoff = 512

// sortFloats sorts data ascending. Large slices take the in-place LSD radix
// sort below on scratch borrowed from scratchPool, so steady-state NEW
// operations allocate nothing; short slices use the stdlib sort. The
// ordering matches sort.Float64s on everything the sketch admits (NaN is
// rejected at Add): -Inf < finite < +Inf, with -0 and +0 freely
// interchangeable as the comparison order cannot tell them apart.
func sortFloats(data []float64) {
	if len(data) < radixSortCutoff {
		sort.Float64s(data)
		return
	}
	sc := scratchPool.Get().(*scratch)
	sc.keys, sc.swap = radixSortFloat64s(data, sc.keys, sc.swap)
	scratchPool.Put(sc)
}

// floatSortKey maps IEEE-754 bits onto a uint64 whose unsigned order is the
// total order of the floats: positives get the sign bit set, negatives are
// bitwise complemented (branchless via the arithmetic shift mask).
func floatSortKey(b uint64) uint64 {
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// floatFromSortKey inverts floatSortKey.
func floatFromSortKey(k uint64) uint64 {
	return k ^ (((k >> 63) - 1) | 1<<63)
}

// radixSortFloat64s sorts data ascending via an LSD radix sort over
// sign-flipped uint64 keys: one counting scan builds all eight digit
// histograms, then each non-uniform digit gets one scatter pass between the
// two scratch buffers. Uniform digits — the common case for the high
// exponent bytes of same-magnitude data — are skipped outright. The scratch
// slices are grown as needed and returned for reuse.
func radixSortFloat64s(data []float64, keys, swap []uint64) ([]uint64, []uint64) {
	n := len(data)
	if n == 0 {
		return keys, swap
	}
	if n > math.MaxUint32 {
		// The per-digit counters are uint32 for cache density; a buffer this
		// size is unreachable through NewSketch, but stay correct regardless.
		sort.Float64s(data)
		return keys, swap
	}
	if cap(keys) < n {
		keys = make([]uint64, n)
	}
	keys = keys[:n]
	if cap(swap) < n {
		swap = make([]uint64, n)
	}
	swap = swap[:n]

	var count [8][256]uint32
	for i, v := range data {
		k := floatSortKey(math.Float64bits(v))
		keys[i] = k
		count[0][k&0xff]++
		count[1][(k>>8)&0xff]++
		count[2][(k>>16)&0xff]++
		count[3][(k>>24)&0xff]++
		count[4][(k>>32)&0xff]++
		count[5][(k>>40)&0xff]++
		count[6][(k>>48)&0xff]++
		count[7][k>>56]++
	}

	src, dst := keys, swap
	for d := 0; d < 8; d++ {
		c := &count[d]
		shift := uint(d * 8)
		if c[(src[0]>>shift)&0xff] == uint32(n) {
			continue // every key shares this digit; the pass would be a copy
		}
		var sum uint32
		for i := range c {
			cnt := c[i]
			c[i] = sum
			sum += cnt
		}
		for _, k := range src {
			b := (k >> shift) & 0xff
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	for i, k := range src {
		data[i] = math.Float64frombits(floatFromSortKey(k))
	}
	return keys, swap
}
