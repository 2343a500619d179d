package core

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

var (
	_ encoding.BinaryMarshaler   = (*Sketch)(nil)
	_ encoding.BinaryUnmarshaler = (*Sketch)(nil)
)

func roundTrip(t *testing.T, s *Sketch) *Sketch {
	t.Helper()
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Sketch{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return restored
}

func TestEncodingRoundTripAnswers(t *testing.T) {
	for _, p := range Policies {
		s := mustSketch(t, 4, 8, p)
		addAll(t, s, permutation(1000, 31))
		restored := roundTrip(t, s)
		for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
			a, errA := s.Quantile(phi)
			b, errB := restored.Quantile(phi)
			if errA != nil || errB != nil || a != b {
				t.Errorf("%v phi=%v: original %v (%v), restored %v (%v)", p, phi, a, errA, b, errB)
			}
		}
		if s.Stats() != restored.Stats() {
			t.Errorf("%v: stats differ: %+v vs %+v", p, s.Stats(), restored.Stats())
		}
		if s.Count() != restored.Count() {
			t.Errorf("%v: counts differ", p)
		}
		if s.ErrorBound() != restored.ErrorBound() {
			t.Errorf("%v: bounds differ", p)
		}
	}
}

// TestEncodingRoundTripContinuation: a restored sketch must consume further
// input exactly like the original would have.
func TestEncodingRoundTripContinuation(t *testing.T) {
	for _, p := range Policies {
		orig := mustSketch(t, 4, 8, p)
		first := permutation(777, 32)
		addAll(t, orig, first)
		restored := roundTrip(t, orig)
		second := permutation(777, 33)
		addAll(t, orig, second)
		addAll(t, restored, second)
		a, err := orig.Quantiles([]float64{0.1, 0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		c, err := restored.Quantiles([]float64{0.1, 0.5, 0.9})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != c[i] {
				t.Errorf("%v: continuation diverged: %v vs %v", p, a, c)
			}
		}
		if orig.Stats() != restored.Stats() {
			t.Errorf("%v: continuation stats diverged", p)
		}
	}
}

func TestEncodingEmptySketch(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyNew)
	restored := roundTrip(t, s)
	if restored.Count() != 0 || restored.B() != 3 || restored.K() != 5 {
		t.Fatalf("restored empty sketch: count=%d b=%d k=%d", restored.Count(), restored.B(), restored.K())
	}
	if _, err := restored.Quantile(0.5); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestEncodingPartialOnly(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyNew)
	addAll(t, s, []float64{3, 1, 2})
	restored := roundTrip(t, s)
	med, err := restored.Quantile(0.5)
	if err != nil || med != 2 {
		t.Fatalf("median = %v, %v", med, err)
	}
}

func TestEncodingRejectsGarbage(t *testing.T) {
	s := mustSketch(t, 3, 5, PolicyNew)
	addAll(t, s, permutation(100, 34))
	good, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		{},
		[]byte("XXXX"),
		good[:len(good)-3],            // truncated
		append([]byte{}, good[:8]...), // header only
	}
	// Corrupt the magic.
	cp := append([]byte(nil), good...)
	cp[0] = 'X'
	bad = append(bad, cp)
	// Trailing junk.
	bad = append(bad, append(append([]byte(nil), good...), 0xFF))
	// Implausible geometry.
	cp2 := append([]byte(nil), good...)
	cp2[6], cp2[7], cp2[8], cp2[9] = 0xFF, 0xFF, 0xFF, 0xFF
	bad = append(bad, cp2)
	for i, data := range bad {
		var r Sketch
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// TestUnmarshalAllocatesWhatItReads: decode sizes buffers from the data an
// encoding carries, not from the geometry its header declares, and restores
// a partial buffer at its own length until filling resumes.
func TestUnmarshalAllocatesWhatItReads(t *testing.T) {
	// 114 bytes declaring b=64, k=65536 and one full buffer whose 512 KiB
	// of values are missing.
	var enc bytes.Buffer
	enc.WriteString(encMagic)
	enc.WriteByte(byte(PolicyNew))
	enc.WriteByte(flagEven)
	for _, v := range []any{
		uint32(64), uint32(65536), // b, k
		int64(1), 0.0, 0.0, // count, min, max
		[7]int64{},                    // stats
		uint32(1),                     // full buffers
		uint32(0), int64(1), int32(0), // slot, weight, level; no values
	} {
		if err := binary.Write(&enc, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Len() != 114 {
		t.Fatalf("encoding is %d bytes, want 114", enc.Len())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := new(Sketch).UnmarshalBinary(enc.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting %d bytes allocated %d bytes, want < 1 MiB", enc.Len(), got)
	}

	s := mustSketch(t, 4, 64, PolicyNew)
	addAll(t, s, permutation(64+3, 35)) // one full buffer, three values mid-fill
	restored := roundTrip(t, s)
	if got := restored.HeldElements(); got != 64+3 {
		t.Fatalf("restored HeldElements = %d, want the full buffer plus the 3-value fill (67)", got)
	}
	if err := restored.Add(0.5); err != nil {
		t.Fatal(err)
	}
	if got := restored.HeldElements(); got != 2*64 {
		t.Fatalf("after resuming the fill HeldElements = %d, want two buffers (128)", got)
	}
}

// TestQuantileAllocatesByFillNotK: a query reads the partial buffer at its
// own length, so a decoded one-value sketch that declares k = 2^24 answers
// without a k-element copy.
func TestQuantileAllocatesByFillNotK(t *testing.T) {
	// 118 bytes: b=2, k=2^24, one value mid-fill.
	var enc bytes.Buffer
	enc.WriteString(encMagic)
	enc.WriteByte(byte(PolicyNew))
	enc.WriteByte(flagEven | flagFill)
	for _, v := range []any{
		uint32(2), uint32(1 << 24), // b, k
		int64(1), 7.0, 7.0, // count, min, max
		[7]int64{},                          // stats
		uint32(0),                           // full buffers
		uint32(0), uint32(1), int32(0), 7.0, // fill slot, length, level, value
	} {
		if err := binary.Write(&enc, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if enc.Len() != 118 {
		t.Fatalf("encoding is %d bytes, want 118", enc.Len())
	}
	var s Sketch
	if err := s.UnmarshalBinary(enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, err := s.Quantile(0.5)
	runtime.ReadMemStats(&after)
	if err != nil || v != 7 {
		t.Fatalf("Quantile(0.5) = %v, %v; want 7", v, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Quantile(0.5) allocated %d bytes, want < 1 MiB", got)
	}
}

// TestUnmarshalAllocatesNearHeldBytes: decode reads the float payload
// straight into the buffers it restores, with no temporary copy of it.
func TestUnmarshalAllocatesNearHeldBytes(t *testing.T) {
	const b, k = 8, 4096
	s := mustSketch(t, b, k, PolicyNew)
	addAll(t, s, permutation(b*k, 36)) // every buffer full, none collapsed yet
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = restored.UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	held := uint64(restored.HeldElements()) * 8
	if held != b*k*8 {
		t.Fatalf("restored sketch holds %d bytes, want all %d buffers (%d)", held, b, b*k*8)
	}
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(held) {
		t.Fatalf("decode allocated %d bytes for %d held, want <= 1.1x", got, held)
	}
}

func TestPropertyEncodingRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := 2 + r.Intn(4)
		k := 1 + r.Intn(12)
		n := r.Intn(800)
		policy := Policies[r.Intn(len(Policies))]
		s, err := NewSketch(b, k, policy)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if s.Add(r.Float64()) != nil {
				return false
			}
		}
		data, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		restored := &Sketch{}
		if err := restored.UnmarshalBinary(data); err != nil {
			return false
		}
		if n == 0 {
			return restored.Count() == 0
		}
		a, errA := s.Quantiles([]float64{0.3, 0.6})
		c, errC := restored.Quantiles([]float64{0.3, 0.6})
		if errA != nil || errC != nil {
			return false
		}
		return a[0] == c[0] && a[1] == c[1] && s.Stats() == restored.Stats()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalRejectsCountBeyondBuffers: the declared count must equal the
// elements the buffers carry (weight*k per full buffer plus the fill
// length). An encoding that declares 1000 elements but holds a two-value
// fill would otherwise answer 9 at every phi and certify Rank(5) = 1
// within a bound of 0.5.
func TestUnmarshalRejectsCountBeyondBuffers(t *testing.T) {
	encode := func(count int64) []byte {
		var enc bytes.Buffer
		enc.WriteString(encMagic)
		enc.WriteByte(byte(PolicyNew))
		enc.WriteByte(flagEven | flagFill)
		for _, v := range []any{
			uint32(3), uint32(4), // b, k
			count, 1.0, 9.0, // count, min, max
			[7]int64{},                               // stats
			uint32(0),                                // full buffers
			uint32(0), uint32(2), int32(0), 1.0, 9.0, // fill slot, length, level, values
		} {
			if err := binary.Write(&enc, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
		return enc.Bytes()
	}
	var s Sketch
	if err := s.UnmarshalBinary(encode(1000)); err == nil {
		t.Fatalf("count 1000 over a two-value fill accepted: %v", &s)
	}
	if err := s.UnmarshalBinary(encode(2)); err != nil {
		t.Fatalf("consistent encoding rejected: %v", err)
	}

	// A full buffer over-claiming the count is refused too, without
	// overflowing weight*k.
	full := mustSketch(t, 3, 4, PolicyNew)
	addAll(t, full, permutation(4, 41))
	enc, err := full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const weightOff = 4 + 2 + 8 + 8*3 + 8*7 + 4 + 4 // header, stats, nFull, slot
	for _, w := range []int64{2, 1 << 62} {
		bad := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(bad[weightOff:], uint64(w))
		if err := new(Sketch).UnmarshalBinary(bad); err == nil {
			t.Fatalf("weight %d over count 4 accepted", w)
		}
	}
}
