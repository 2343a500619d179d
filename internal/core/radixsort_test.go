package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkSortedMatch verifies that radix-sorting got is element-wise equal
// (under float comparison, so -0 == +0) to stdlib-sorting want.
func checkSortedMatch(t *testing.T, name string, data []float64) {
	t.Helper()
	want := append([]float64(nil), data...)
	sort.Float64s(want)
	got := append([]float64(nil), data...)
	var keys, swap []uint64
	radixSortFloat64s(got, keys, swap)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: index %d: radix %v (bits %#x) vs stdlib %v (bits %#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("%s: radix output not sorted", name)
	}
}

func TestRadixSortFloat64s(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	denorm := math.Float64frombits(1)            // smallest positive denormal
	negDenorm := math.Float64frombits(1 | 1<<63) // its negative twin
	cases := map[string][]float64{
		"empty":      {},
		"single":     {3.25},
		"two":        {2, 1},
		"dups":       {5, 5, 5, 1, 1, 9, 9, 9, 9},
		"infinities": {inf, -inf, 0, 1, -1, inf, -inf},
		"zeros":      {negZero, 0, negZero, 0, 1, -1},
		"denormals":  {denorm, negDenorm, 0, negZero, -denorm, math.SmallestNonzeroFloat64},
		"extremes":   {math.MaxFloat64, -math.MaxFloat64, inf, -inf, 0},
		"sorted":     {1, 2, 3, 4, 5, 6, 7, 8},
		"reversed":   {8, 7, 6, 5, 4, 3, 2, 1},
	}
	for name, data := range cases {
		checkSortedMatch(t, name, data)
	}
}

// TestRadixSortSizes sweeps sizes around the cutoff (both sortFloats paths)
// plus larger buffers, on several distributions.
func TestRadixSortSizes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, 15, radixSortCutoff - 1, radixSortCutoff, radixSortCutoff + 1, 1024, 4096}
	for _, n := range sizes {
		uniform := make([]float64, n)
		narrow := make([]float64, n)
		signed := make([]float64, n)
		for i := 0; i < n; i++ {
			uniform[i] = r.Float64()
			narrow[i] = 100 + float64(r.Intn(8)) // heavy ties, uniform high bytes
			signed[i] = (r.Float64() - 0.5) * math.Ldexp(1, r.Intn(100)-50)
		}
		checkSortedMatch(t, fmt.Sprintf("uniform/n=%d", n), uniform)
		checkSortedMatch(t, fmt.Sprintf("narrow/n=%d", n), narrow)
		checkSortedMatch(t, fmt.Sprintf("signed/n=%d", n), signed)
	}
}

// TestSortFloatsScratchReuse checks that consecutive sortFloats calls reuse
// the pooled scratch the first call grew rather than reallocating.
func TestSortFloatsScratchReuse(t *testing.T) {
	skipIfAllocsUnreliable(t) // the race detector drops sync.Pool entries at random
	data := benchData(1024, 11)
	sortFloats(data)
	allocs := testing.AllocsPerRun(20, func() {
		copy(data, benchPermuted)
		sortFloats(data)
	})
	if allocs != 0 {
		t.Fatalf("sortFloats allocated %v times per run after warm-up", allocs)
	}
}

var benchPermuted = benchData(1024, 12)

// FuzzRadixSortVsStdlib differentially fuzzes the radix sort against
// sort.Float64s. NaN is excluded — the sketch rejects it at Add — but
// infinities, signed zeros and denormals are all fair game. Comparison is
// by float equality, not bit equality: the radix order puts -0 before +0,
// which sort.Float64s (comparison based) cannot distinguish.
func FuzzRadixSortVsStdlib(f *testing.F) {
	f.Add([]byte{}, uint16(3))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint16(300)) // +Inf, stretched
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff}, uint16(512))
	f.Fuzz(func(t *testing.T, raw []byte, stretch uint16) {
		base := make([]float64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits |= uint64(raw[i+j]) << (8 * j)
			}
			v := math.Float64frombits(bits)
			if math.IsNaN(v) {
				continue
			}
			base = append(base, v)
		}
		// Stretch beyond the cutoff so the radix path is actually exercised,
		// repeating the fuzzed values to keep their bit patterns.
		n := int(stretch)%2048 + len(base)
		data := make([]float64, 0, n)
		data = append(data, base...)
		for i := len(base); i < n; i++ {
			if len(base) > 0 && i%3 == 0 {
				data = append(data, base[i%len(base)])
			} else {
				data = append(data, math.Ldexp(float64(i%97)-48, i%61-30))
			}
		}
		want := append([]float64(nil), data...)
		sort.Float64s(want)
		got := append([]float64(nil), data...)
		radixSortFloat64s(got, nil, nil)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("index %d: radix %v vs stdlib %v", i, got[i], want[i])
			}
		}
	})
}

// BenchmarkSortFloats compares the radix sort against sort.Float64s across
// sizes; it is the measurement behind radixSortCutoff.
func BenchmarkSortFloats(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 4096, 16384} {
		src := benchData(n, int64(n))
		work := make([]float64, n)
		b.Run(fmt.Sprintf("stdlib/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, src)
				sort.Float64s(work)
			}
			b.SetBytes(int64(8 * n))
		})
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			var keys, swap []uint64
			for i := 0; i < b.N; i++ {
				copy(work, src)
				keys, swap = radixSortFloat64s(work, keys, swap)
			}
			b.SetBytes(int64(8 * n))
		})
	}
}
