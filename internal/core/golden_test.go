package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// goldenLognormal returns n lognormal values, each rounded to float32: the
// last bit of math.Exp differs between CPUs with and without FMA, and the
// rounding keeps the stream, and so the hashes below, the same on both.
func goldenLognormal(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(float32(math.Exp(r.NormFloat64())))
	}
	return vs
}

// goldenTies returns n values of which most repeat a small palette holding
// both zeros, both infinities and a subnormal, and the rest repeat the
// multiples of 1/8 below 125: ties across buffers at every weight.
func goldenTies(n int, seed int64) []float64 {
	palette := []float64{
		math.Inf(-1), -1, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		1, 1.5, 2, math.MaxFloat64, math.Inf(1),
	}
	r := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		if r.Intn(10) < 7 {
			vs[i] = palette[r.Intn(len(palette))]
		} else {
			vs[i] = float64(r.Intn(1000)) / 8
		}
	}
	return vs
}

// TestSketchStateGolden pins the whole state of sketches fed fixed streams:
// the SHA-256 of each MarshalBinary covers every buffer's bits (signed zeros
// included), weights, levels, slots, the offset parity and Stats, so it
// moves if COLLAPSE picks any other element or runs on any other schedule.
// The geometries are quantiled's served ones (all-time and window, single
// node and cluster node) for the new policy, and Table 1's (10, 596) for
// Munro-Paterson and Alsabti-Ranka-Singh. The absorb rows feed each half of
// the stream to its own sketch and absorb the second into the first.
func TestSketchStateGolden(t *testing.T) {
	lognormal := goldenLognormal(2_000_000, 1)
	ties := goldenTies(1_000_000, 2)
	cases := []struct {
		stream string
		b, k   int
		policy Policy
		absorb bool
		want   string
	}{
		{"lognormal", 8, 4371, PolicyNew, false,
			"bed765d969af921e8884f3cce37475ff4b1c91f8c1b30e43117fee555ec93929"},
		{"lognormal", 5, 3031, PolicyNew, false,
			"42f882d00276a2158690a4971aaca15806d7e3dd3a53cb36eac0e39aa1b506c4"},
		{"lognormal", 6, 8326, PolicyNew, false,
			"dfb5b978b6da002a4ccda778e9144630d0cc9516799ee43db3b333e474a4c910"},
		{"lognormal", 3, 9524, PolicyNew, false,
			"bab60cfdcde652880fb473f352704d1fb5aa49cb8a8d1af1a4f38b026399610b"},
		{"lognormal", 10, 596, PolicyMunroPaterson, false,
			"cb8a75a07f4d66a8feb3d0af7859d1190084aec825c47fb6705986820ec23b6b"},
		{"lognormal", 10, 596, PolicyARS, false,
			"9ff71205f6d630232f0a5418eb6f0ed7b2b776aaf2cff23d93e3c346f539b499"},
		{"lognormal", 5, 3031, PolicyNew, true,
			"93b8ae9b894923122f925878efb32e6d6c3f8bc99d58d43451180897f475a0aa"},
		{"ties", 8, 4371, PolicyNew, false,
			"130001037aed1cb35ba210ca0ec1324a5ba66d00bf65867daa9a7660e24f2130"},
		{"ties", 5, 3031, PolicyNew, false,
			"5d4887586034b87f2fd5d98e413e80f74fc62c0ef4d4677af01b7c7aa3ddeb6a"},
		{"ties", 6, 8326, PolicyNew, false,
			"ba5e6efd17b377789dbf1f8e446c6e88e26f21b1c697098b22d31f4129569712"},
		{"ties", 3, 9524, PolicyNew, false,
			"9a7c4601ac14a4aac9dc4981de0f59197b039c2d4987dc8613b0f8080723c7fc"},
		{"ties", 10, 596, PolicyMunroPaterson, false,
			"fd114e7beb184fd858d192aa60933240cf1efe7fa4dbb47d0eae6a0a491d3652"},
		{"ties", 10, 596, PolicyARS, false,
			"bbc6e8070c2a9ff0f37ad2d7d47ef5b0ac790c32f8e9a85028322fdc0a0f7027"},
		{"ties", 10, 596, PolicyMunroPaterson, true,
			"1109627dbe3c7ddc3b3da467b11698f69454accd171d6737846740a11ebc348e"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%v/b=%d/k=%d/absorb=%t", tc.stream, tc.policy, tc.b, tc.k, tc.absorb)
		data := lognormal
		if tc.stream == "ties" {
			data = ties
		}
		s := mustSketch(t, tc.b, tc.k, tc.policy)
		if tc.absorb {
			other := mustSketch(t, tc.b, tc.k, tc.policy)
			addAll(t, s, data[:len(data)/2])
			addAll(t, other, data[len(data)/2:])
			if err := s.Absorb(other); err != nil {
				t.Fatal(err)
			}
		} else {
			addAll(t, s, data)
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: state hash %s, want %s", name, got, tc.want)
		}
	}
}
