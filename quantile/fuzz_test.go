package quantile

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// FuzzConcurrentAdd feeds arbitrary value/chunk interleavings through the
// sharded AddBatch/Add paths of every backend — half the stream from a
// second goroutine so routing genuinely interleaves — and asserts the
// concurrent invariants: no panic, count conservation, monotone quantile
// outputs, every answer a genuine input element, and for the deterministic
// backends (mrl, weighted) every answer within the reported combined bound.
// KLL's bound is probabilistic, so its rank is not checked.
func FuzzConcurrentAdd(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(3), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 42, 17}, uint8(4), uint8(1), uint8(0))
	f.Add([]byte("concurrent quantiles"), uint8(8), uint8(7), uint8(0))
	f.Add([]byte("concurrent kll quantiles, long enough to compact"), uint8(3), uint8(5), uint8(1))
	f.Add([]byte("concurrent weighted quantiles, long enough to compress"), uint8(2), uint8(4), uint8(2))
	configs := []ConcurrentConfig{
		{B: 3, K: 4},
		{Backend: BackendKLL, K: 8, Seed: 1},
		{Backend: BackendWeighted, Epsilon: 0.1},
	}
	f.Fuzz(func(t *testing.T, raw []byte, shardRaw, chunkRaw, backendRaw uint8) {
		if len(raw) == 0 {
			return
		}
		shards := 1 + int(shardRaw)%8
		chunk := 1 + int(chunkRaw)%9
		data := make([]float64, 0, len(raw))
		for i, b := range raw {
			data = append(data, float64(b)+float64(i%5)/8)
		}
		cfg := configs[int(backendRaw)%len(configs)]
		cfg.Shards = shards
		c, err := NewConcurrent(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Split the stream in two; feed the halves from separate goroutines
		// in chunkRaw-sized batches (with a sprinkle of single Adds).
		half := len(data) / 2
		feed := func(part []float64) error {
			for off := 0; off < len(part); {
				sz := chunk
				if off+sz > len(part) {
					sz = len(part) - off
				}
				if sz == 1 {
					if err := c.Add(part[off]); err != nil {
						return err
					}
				} else if err := c.AddBatch(part[off : off+sz]); err != nil {
					return err
				}
				off += sz
			}
			return nil
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = feed(data[:half]) }()
		go func() { defer wg.Done(); errs[1] = feed(data[half:]) }()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		if c.Count() != int64(len(data)) {
			t.Fatalf("%s: count %d, fed %d", c.Backend(), c.Count(), len(data))
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		phis := []float64{0, 0.2, 0.4, 0.5, 0.6, 0.8, 1}
		values, bound, err := c.QuantilesWithBound(phis)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[float64]bool, len(data))
		for _, v := range data {
			seen[v] = true
		}
		for i, phi := range phis {
			if i > 0 && values[i] < values[i-1] {
				t.Fatalf("%s: non-monotone outputs at phi=%v: %v", c.Backend(), phi, values)
			}
			if !seen[values[i]] {
				t.Fatalf("%s phi=%v: output %v is not an input element", c.Backend(), phi, values[i])
			}
			if c.Backend() == BackendKLL {
				continue
			}
			target := math.Ceil(phi * float64(len(data)))
			if target < 1 {
				target = 1
			}
			lo := float64(sort.SearchFloat64s(sorted, values[i]) + 1)
			hi := float64(sort.Search(len(sorted), func(j int) bool { return sorted[j] > values[i] }))
			if hi < target-bound-1 || lo > target+bound+1 {
				t.Fatalf("%s shards=%d chunk=%d n=%d phi=%v: got %v rank=[%v,%v] target=%v bound=%v",
					c.Backend(), shards, chunk, len(data), phi, values[i], lo, hi, target, bound)
			}
		}
	})
}
