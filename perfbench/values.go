package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"syscall"
)

// Every metric's stream is a deterministic function of the seed and the
// value's position in the stream, so the checker can regenerate exactly
// the values the deployment acknowledged. All values are integers, which
// keeps the exact oracle a histogram.

// splitmix64 is a stateless 64-bit mixer: mix(seed, i) gives an
// independent-looking value per position.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// valueGen fills dst with the values at positions [pos, pos+len(dst)) of
// metric m's stream.
type valueGen interface {
	fill(m int, pos int64, dst []float64)
	domain() int // values lie in [0, domain)
}

// permGen streams epochs of seeded shuffled permutations of [0, permSize):
// epoch e of metric m is permutation (e+m) mod len(perms).
// The permutations are dropped before heap_mb is read and regenerated from
// the seed for the checker.
type permGen struct {
	seed  int64
	n     int
	perms [][]float64
}

const permSize = 1 << 20

func newPermGen(seed int64, n int) *permGen { return &permGen{seed: seed, n: n} }

func (g *permGen) drop() { g.perms = nil }

// load generates the permutations; call it before any goroutine reads
// them.
func (g *permGen) load() {
	if g.perms != nil {
		return
	}
	rng := rand.New(rand.NewSource(g.seed))
	for i := 0; i < g.n; i++ {
		p := make([]float64, permSize)
		for j, v := range rng.Perm(permSize) {
			p[j] = float64(v)
		}
		g.perms = append(g.perms, p)
	}
}

// slice returns the values at [pos, pos+n): a view into one permutation,
// or a fresh copy when the range straddles two epochs.
func (g *permGen) slice(m int, pos int64, n int) []float64 {
	e, off := pos/permSize, pos%permSize
	p := g.perms[(int(e)+m)%len(g.perms)]
	if off+int64(n) <= permSize {
		return p[off : off+int64(n)]
	}
	out := make([]float64, n)
	g.fill(m, pos, out)
	return out
}

func (g *permGen) fill(m int, pos int64, dst []float64) {
	for len(dst) > 0 {
		e, off := pos/permSize, pos%permSize
		c := copy(dst, g.perms[(int(e)+m)%len(g.perms)][off:])
		dst, pos = dst[c:], pos+int64(c)
	}
}
func (g *permGen) domain() int { return permSize }

// latencyGen draws latency-like integers in [0, latDomain): u^k scaled, with
// the skew k = 1..4 varying by metric so the metrics do not share a shape.
type latencyGen struct{ seed uint64 }

const latDomain = 1 << 16

func (g latencyGen) fill(m int, pos int64, dst []float64) {
	base := splitmix64(g.seed ^ uint64(m)<<40)
	k := m%4 + 1
	for i := range dst {
		u := float64(splitmix64(base+uint64(pos)+uint64(i))>>11) / (1 << 53)
		x := u
		for j := 1; j < k; j++ {
			x *= u
		}
		dst[i] = float64(int(x * latDomain))
	}
}

func (g latencyGen) domain() int { return latDomain }

// arena hands out byte slices from anonymous mmap chunks: pre-encoded
// frames and request bodies live off the Go heap, so they neither pace the
// collector during the run nor count in heap_mb, and free returns them at
// once.
type arena struct {
	chunks [][]byte
	cur    []byte
}

const arenaChunk = 8 << 20

func (a *arena) alloc(n int) ([]byte, error) {
	if n > len(a.cur) {
		size := arenaChunk
		if n > size {
			size = n
		}
		b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("arena: mmap: %w", err)
		}
		a.chunks = append(a.chunks, b)
		a.cur = b
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out, nil
}

func (a *arena) free() {
	for _, b := range a.chunks {
		_ = syscall.Munmap(b)
	}
	a.chunks, a.cur = nil, nil
}

// zipfOrder returns n draws of indices in [0, k) with zipf(s) popularity,
// index 0 the most popular. The ranking is fixed, not drawn from the seed,
// so every seed puts the same kinds of metrics at the same popularity.
func zipfOrder(rng *rand.Rand, k, n int, s float64) []int {
	cum := make([]float64, k)
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	out := make([]int, n)
	for i := range out {
		out[i] = sort.SearchFloat64s(cum, rng.Float64()*total)
	}
	return out
}

// interleave lists a with one element of b after every run of `every`
// elements of a, then whatever is left: a fixed popularity order that
// spreads b's metrics through the ranking.
func interleave(a, b []int, every int) []int {
	var out []int
	for i, x := range a {
		out = append(out, x)
		if (i+1)%every == 0 && len(b) > 0 {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return append(out, b...)
}
