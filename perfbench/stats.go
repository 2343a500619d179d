package main

import (
	"math"
	"sort"
)

// quantileOf returns the nearest-rank phi-quantile of xs (sorted in place);
// failed operations enter as +Inf. It returns 0 for an empty sample.
func quantileOf(xs []float64, phi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(phi*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }
