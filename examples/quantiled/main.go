// Serving quantiles over HTTP: an in-process quantiled server and the
// client calls a monitoring pipeline would make against it — batched
// ingestion, all-time and windowed quantile queries with their live error
// bounds, window rotation, observability, and a checkpointed restart.
//
//	go run ./examples/quantiled
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mrl/internal/serve"
)

func main() {
	ckpt := filepath.Join(os.TempDir(), fmt.Sprintf("quantiled-example-%d.ckpt", os.Getpid()))
	defer os.Remove(ckpt)

	reg, err := serve.NewRegistry(serve.Config{
		Epsilon:   0.005,     // all-time: rank error <= 0.5% of N
		N:         1_000_000, // per-metric capacity
		Windows:   3,         // serve "last 3 windows" too
		PerWindow: 200_000,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := serve.New(reg, serve.Options{CheckpointPath: ckpt})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("quantiled serving on %s\n\n", base)

	// --- ingest: three "minutes" of latencies, rotating between them ---
	r := rand.New(rand.NewSource(42))
	for minute := 1; minute <= 3; minute++ {
		batch := make([]float64, 50_000)
		for i := range batch {
			batch[i] = 5 + 10*r.ExpFloat64()
			if minute == 3 && r.Float64() < 0.02 { // minute 3 has an incident
				batch[i] += 300
			}
		}
		post(base+"/ingest", map[string]any{"metric": "latency_ms", "values": batch})
		if minute < 3 {
			post(base+"/rotate?metric=latency_ms", nil)
		}
	}

	// --- query: all-time vs the incident-dominated current windows ---
	for _, window := range []bool{false, true} {
		var resp struct {
			Values     []float64 `json:"values"`
			Count      int64     `json:"count"`
			ErrorBound float64   `json:"errorBound"`
			Epsilon    float64   `json:"epsilon"`
		}
		get(fmt.Sprintf("%s/quantile?metric=latency_ms&phi=0.5,0.99,0.999&window=%v", base, window), &resp)
		fmt.Printf("window=%-5v  p50=%7.2f  p99=%7.2f  p99.9=%7.2f  (n=%d, rank error <= %.0f, eps=%.5f)\n",
			window, resp.Values[0], resp.Values[1], resp.Values[2], resp.Count, resp.ErrorBound, resp.Epsilon)
	}

	// --- observability ---
	var mz struct {
		Metrics []serve.MetricStatus `json:"metrics"`
	}
	get(base+"/metricsz", &mz)
	st := mz.Metrics[0]
	fmt.Printf("\nmetricsz: %q count=%d memory=%d elements collapses=%d rotations=%d\n",
		st.Name, st.Count, st.MemoryElements, st.Collapses, st.Window.Rotations)

	// --- graceful shutdown seals everything into the checkpoint ---
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshutdown: sealed state checkpointed to %s (%d bytes)\n", ckpt, fi.Size())

	// --- a second life restores the baseline and keeps serving ---
	reg2, err := serve.NewRegistry(serve.Config{Epsilon: 0.005, N: 1_000_000, Windows: 3, PerWindow: 200_000})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := reg2.LoadCheckpoint(ckpt); err != nil {
		log.Fatal(err)
	}
	res, err := reg2.Quantiles("latency_ms", []float64{0.99}, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored:  p99=%7.2f over %d elements (rank error <= %.0f)\n",
		res.Values[0], res.Count, res.ErrorBound)
}

func post(url string, body any) {
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		blob, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
