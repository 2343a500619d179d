package core

import (
	"math"
	"sort"
	"testing"
)

// FuzzSketchVsExact feeds arbitrary byte-derived streams through a small
// sketch and cross-checks every answer against the exact sorted data plus
// the live error bound.
func FuzzSketchVsExact(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9}, uint8(1))
	f.Add([]byte("hello quantiles"), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, polRaw uint8) {
		if len(raw) == 0 {
			return
		}
		policy := Policies[int(polRaw)%len(Policies)]
		b := 2 + int(polRaw)%4
		k := 1 + len(raw)%7
		s, err := NewSketch(b, k, policy)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]float64, 0, len(raw))
		for i, c := range raw {
			v := float64(c) + float64(i%3)/4
			data = append(data, v)
			if err := s.Add(v); err != nil {
				t.Fatal(err)
			}
		}
		sort.Float64s(data)
		bound := s.ErrorBound()
		for _, phi := range []float64{0, 0.33, 0.5, 0.77, 1} {
			got, err := s.Quantile(phi)
			if err != nil {
				t.Fatal(err)
			}
			target := int(math.Ceil(phi * float64(len(data))))
			if target < 1 {
				target = 1
			}
			// Rank range of got in data.
			lo := sort.SearchFloat64s(data, got) + 1
			hi := sort.Search(len(data), func(i int) bool { return data[i] > got })
			if float64(target) < float64(lo)-bound-1 || float64(target) > float64(hi)+bound+1 {
				t.Fatalf("policy=%v b=%d k=%d n=%d phi=%v: got %v (ranks [%d,%d]), target %d, bound %v",
					policy, b, k, len(data), phi, got, lo, hi, target, bound)
			}
		}
	})
}

// FuzzUnmarshalBinary throws arbitrary bytes at the decoder: it must never
// panic, and any accepted payload must round-trip to identical bytes.
func FuzzUnmarshalBinary(f *testing.F) {
	seedSketch, err := NewSketch(3, 4, PolicyNew)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := seedSketch.Add(float64(i)); err != nil {
			f.Fatal(err)
		}
	}
	seed, err := seedSketch.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("MRL1garbage")) // pre-slot-format magic: must be rejected
	f.Add([]byte("MRL2garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Sketch
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted: the state must be internally consistent enough to
		// re-marshal and answer queries without panicking.
		out, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted payload failed: %v", err)
		}
		if len(out) == 0 {
			t.Fatal("re-marshal produced nothing")
		}
		// OUTPUT's rank arithmetic assumes the merge has exactly Count
		// slots.
		if views, err := s.FinalBuffersRaw(); s.Count() > 0 && (err != nil || totalWeight(views) != s.Count()) {
			t.Fatalf("Count %d but the buffers hold %d weighted slots (err %v)", s.Count(), totalWeight(views), err)
		}
		if s.Count() > 0 {
			if _, err := s.Quantile(0.5); err != nil {
				t.Fatalf("accepted sketch cannot answer: %v", err)
			}
		}
	})
}

// FuzzCombine splits fuzzed values into P >= 1 sketches of fuzzed geometry,
// some built through Absorb, and checks the shared OUTPUT (Quantiles and
// ErrorBound over all of them) against an exact oracle: every answer's rank
// error is within the combined bound, ranks 1 and N answer the exact
// extremes, and the combined bound is no smaller than any part's own.
func FuzzCombine(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte("combined quantiles over partitions"), uint8(3), uint8(17), uint8(5))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 200, 100, 50, 25, 12, 6, 3, 1}, uint8(4), uint8(200), uint8(31))
	f.Fuzz(func(t *testing.T, raw []byte, parts, geom, absorbs uint8) {
		if len(raw) == 0 {
			return
		}
		p := 1 + int(parts)%5
		data := make([]float64, len(raw))
		for i, c := range raw {
			data[i] = float64(c) + float64(i%3)/4
		}
		sketches := make([]*Sketch, p)
		for i := range sketches {
			g := int(geom) + 7*i
			b, k, policy := 2+g%4, 1+(g/4)%8, Policies[(g/32)%len(Policies)]
			chunk := data[i*len(data)/p : (i+1)*len(data)/p]
			s := mustSketch(t, b, k, policy)
			if absorbs>>i&1 == 1 && len(chunk) > 1 {
				// Half through Absorb: the part carries an absorb charge.
				other := mustSketch(t, b, k, policy)
				addAll(t, other, chunk[len(chunk)/2:])
				chunk = chunk[:len(chunk)/2]
				if err := s.Absorb(other); err != nil {
					t.Fatal(err)
				}
			}
			addAll(t, s, chunk)
			sketches[i] = s
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		n := len(sorted)

		bound := ErrorBound(sketches)
		for i, s := range sketches {
			if s.Count() > 0 && bound < s.ErrorBound() {
				t.Fatalf("combined bound %v below part %d's own %v", bound, i, s.ErrorBound())
			}
		}
		phis := []float64{0, 0.1, 0.33, 0.5, 0.77, 0.9, 1}
		got, err := Quantiles(sketches, phis)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != sorted[0] || got[len(phis)-1] != sorted[n-1] {
			t.Fatalf("ranks 1 and %d answered %v and %v, want the exact extremes %v and %v",
				n, got[0], got[len(phis)-1], sorted[0], sorted[n-1])
		}
		for i, phi := range phis {
			target := max(math.Ceil(phi*float64(n)), 1)
			// The rank interval of got[i] in the data.
			lo := float64(sort.SearchFloat64s(sorted, got[i]) + 1)
			hi := float64(sort.Search(n, func(j int) bool { return sorted[j] > got[i] }))
			if target < lo-bound || target > hi+bound {
				t.Fatalf("P=%d n=%d phi=%v: got %v (ranks [%v,%v]), target %v, bound %v",
					p, n, phi, got[i], lo, hi, target, bound)
			}
		}
	})
}
