package kll

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchSketch(b *testing.B, k, n int) *Sketch {
	b.Helper()
	s, err := New(k, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if err := s.Add(rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// The sub-benchmark names carry a "kll/" prefix so these land in the same
// gated namespace as internal/core's BenchmarkAdd/AddBatch/Quantiles
// without colliding: the bench gate matches ^Benchmark(Add|AddBatch|Quantiles)/.

func BenchmarkAdd(b *testing.B) {
	b.Run("kll/k=200", func(b *testing.B) {
		s, err := New(200, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		vals := make([]float64, 1<<16)
		for i := range vals {
			vals[i] = rng.Float64()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Add(vals[i&(len(vals)-1)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAddBatch runs at k = 200 and at k = 2000, the k quantiled's
// default epsilon of 0.001 derives (~2/epsilon), where the compaction sort
// of a level dominates.
func BenchmarkAddBatch(b *testing.B) {
	for _, k := range []int{200, 2000} {
		b.Run(fmt.Sprintf("kll/k=%d/batch=1024", k), func(b *testing.B) {
			s, err := New(k, 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			batch := make([]float64, 1024)
			for i := range batch {
				batch[i] = rng.Float64()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.AddBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuantiles(b *testing.B) {
	b.Run("kll/k=200/q=5", func(b *testing.B) {
		s := benchSketch(b, 200, 1_000_000)
		phis := []float64{0.01, 0.25, 0.5, 0.75, 0.99}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Quantiles(phis); err != nil {
				b.Fatal(err)
			}
		}
	})
}
