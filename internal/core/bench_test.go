package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func benchData(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = r.Float64()
	}
	return data
}

// BenchmarkAdd measures per-element ingest cost across policies and buffer
// sizes; amortised collapse work dominates at small k.
func BenchmarkAdd(b *testing.B) {
	data := benchData(1<<16, 1)
	for _, p := range Policies {
		for _, cfg := range []struct{ bN, k int }{{5, 64}, {10, 596}, {5, 4096}} {
			b.Run(fmt.Sprintf("%s/b=%d/k=%d", p, cfg.bN, cfg.k), func(b *testing.B) {
				s, err := NewSketch(cfg.bN, cfg.k, p)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.Add(data[i&(1<<16-1)]); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(8)
			})
		}
	}
}

// BenchmarkQuantiles measures query cost (a full weighted merge over the
// surviving buffers) as a function of the number of requested quantiles.
func BenchmarkQuantiles(b *testing.B) {
	s, err := NewSketch(10, 596, PolicyNew)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range benchData(1<<20, 2) {
		if err := s.Add(v); err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range []int{1, 15, 100} {
		phis := make([]float64, q)
		for i := range phis {
			phis[i] = float64(i+1) / float64(q+1)
		}
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Quantiles(phis); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRank measures the cost of a rank/CDF probe.
func BenchmarkRank(b *testing.B) {
	s, err := NewSketch(10, 596, PolicyNew)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range benchData(1<<20, 3) {
		if err := s.Add(v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Rank(0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectInMerge measures OUTPUT's weighted selection, the merge
// walk; COLLAPSE selects with BenchmarkCollapse's kernel instead.
func BenchmarkSelectInMerge(b *testing.B) {
	for _, c := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("buffers=%d", c), func(b *testing.B) {
			const k = 1024
			bufs := make([]Weighted, c)
			r := rand.New(rand.NewSource(4))
			for i := range bufs {
				data := make([]float64, k)
				for j := range data {
					data[j] = r.Float64()
				}
				sort.Float64s(data)
				bufs[i] = Weighted{Data: data, Weight: int64(i + 1)}
			}
			targets := make([]int64, k)
			total := totalWeight(bufs)
			for j := range targets {
				targets[j] = int64(j)*total/int64(k) + 1
			}
			out := make([]float64, k)
			var sc mergeScratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				selectInMergeScratch(bufs, targets, out, &sc)
			}
			b.SetBytes(int64(8 * c * k))
		})
	}
}

// BenchmarkCollapse measures COLLAPSE's selection of every w-th merged
// position: the kernel (selectEvery) beside the merge walk that OUTPUT
// keeps, on the same runs and targets, at the served buffer sizes (k = 4371
// all-time and 3031 per window) and cohorts of c buffers. ns/elem is the
// time per merged element.
func BenchmarkCollapse(b *testing.B) {
	for _, k := range []int{4371, 3031} {
		for _, c := range []int{2, 3, 5, 8, 32} {
			r := rand.New(rand.NewSource(7))
			runs := make([]Weighted, c)
			var w int64
			for i := range runs {
				data := make([]float64, k)
				for j := range data {
					data[j] = r.Float64()
				}
				sort.Float64s(data)
				runs[i] = Weighted{Data: data, Weight: int64(1 + i%3)}
				w += runs[i].Weight
			}
			offset := (w + 1) / 2
			targets := make([]int64, k)
			for j := range targets {
				targets[j] = int64(j)*w + offset
			}
			out := make([]float64, k)
			perElem := func(b *testing.B) {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c*k), "ns/elem")
			}
			b.Run(fmt.Sprintf("k=%d/c=%d/kernel", k, c), func(b *testing.B) {
				var sc scratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sc.selectEvery(runs, w, offset, out)
				}
				perElem(b)
			})
			b.Run(fmt.Sprintf("k=%d/c=%d/walk", k, c), func(b *testing.B) {
				var sc mergeScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					selectInMergeScratch(runs, targets, out, &sc)
				}
				perElem(b)
			})
		}
	}
}

// BenchmarkMarshal measures sketch serialisation round trips.
func BenchmarkMarshal(b *testing.B) {
	s, err := NewSketch(10, 596, PolicyNew)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range benchData(1<<18, 5) {
		if err := s.Add(v); err != nil {
			b.Fatal(err)
		}
	}
	data, err := s.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r Sketch
			if err := r.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(data)))
	})
}

// BenchmarkAddBatch measures bulk ingestion throughput against the
// element-by-element Add loop at several batch sizes and buffer geometries;
// the large-k cases are where the NEW sort dominates.
func BenchmarkAddBatch(b *testing.B) {
	data := benchData(1<<16, 6)
	for _, cfg := range []struct{ bN, k int }{{10, 596}, {8, 4096}} {
		for _, batch := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("k=%d/batch=%d", cfg.k, batch), func(b *testing.B) {
				s, err := NewSketch(cfg.bN, cfg.k, PolicyNew)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += batch {
					off := i & (1<<16 - 1)
					end := off + batch
					if end > 1<<16 {
						end = 1 << 16
					}
					if err := s.AddBatch(data[off:end]); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(8)
			})
		}
	}
}
