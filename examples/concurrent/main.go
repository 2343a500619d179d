// Concurrent sharded ingestion: GOMAXPROCS writer goroutines feed one
// quantile.Concurrent sketch through the batched hot path while a reader
// samples the live median, then the final percentiles are answered through
// the combined OUTPUT phase of Section 4.9 with an explicit error bound.
//
//	go run ./examples/concurrent
package main

import (
	"fmt"
	"log"
	"math"
	"runtime"
	"sync"
	"time"

	"mrl/internal/stream"
	"mrl/quantile"
)

func main() {
	const n = 4_000_000
	writers := runtime.GOMAXPROCS(0)

	// A permutation stream so exact ranks are known: rank(v) = v.
	data := stream.Drain(stream.Shuffled(n, 7))

	c, err := quantile.NewConcurrent(quantile.ConcurrentConfig{
		Epsilon: 0.001, // combined answers within 0.1% of N, guaranteed
		N:       n,
		// Shards defaults to GOMAXPROCS — one uncontended writer per core.
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Describe())

	// Writers split the stream and feed it in batches; queries are safe at
	// any time, so a reader polls the live median while they run.
	const batch = 8192
	start := time.Now()
	var wg sync.WaitGroup
	per := n / writers
	for w := 0; w < writers; w++ {
		lo, hi := w*per, (w+1)*per
		if w == writers-1 {
			hi = n
		}
		wg.Add(1)
		go func(part []float64) {
			defer wg.Done()
			for off := 0; off < len(part); off += batch {
				end := off + batch
				if end > len(part) {
					end = len(part)
				}
				if err := c.AddBatch(part[off:end]); err != nil {
					log.Fatal(err)
				}
			}
		}(data[lo:hi])
	}
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if med, err := c.Median(); err == nil {
					fmt.Printf("  live: count=%9d median=%9.0f\n", c.Count(), med)
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	elapsed := time.Since(start)

	phis := []float64{0.25, 0.5, 0.75, 0.95, 0.99}
	values, bound, err := c.QuantilesWithBound(phis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d writers x %d elements in %v (%.1f Melem/s)\n",
		writers, n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds()/1e6)
	fmt.Printf("combined bound: %.1f ranks (eps = %.6f)\n\n", bound, bound/float64(n))
	for i, phi := range phis {
		exact := math.Ceil(phi * n)
		fmt.Printf("  phi=%.2f  estimate=%9.0f  exact=%9.0f  |err|=%6.0f ranks\n",
			phi, values[i], exact, math.Abs(values[i]-exact))
	}

	// The combined state can be sealed into one standalone estimator (a
	// sequential sketch on the MRL backend), e.g. to serialise it or merge
	// it with summaries from other processes.
	sealed, err := c.SealEstimator()
	if err != nil {
		log.Fatal(err)
	}
	blob, err := sealed.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsealed to a sequential sketch: %s (%d bytes serialised)\n",
		sealed.Describe(), len(blob))
}
