package main

import "math"

// samples holds raw observations and answers exact quantiles over them.
// The fleet harness's log-linear histogram has ~6% buckets, coarser than
// the regression bounds this benchmark enforces, so nothing is bucketed.
type samples struct {
	xs []float64
}

func (s *samples) add(x float64) { s.xs = append(s.xs, x) }

func (s *samples) merge(o *samples) { s.xs = append(s.xs, o.xs...) }

func (s *samples) n() int { return len(s.xs) }

func (s *samples) mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t / float64(len(s.xs))
}

// quantile returns the exact nearest-rank q-quantile: the smallest sample
// with at least a q share of the samples at or below it. It reorders the
// samples in place (selection, not a full sort) and returns 0 when empty.
func (s *samples) quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	return selectKth(s.xs, rankIndex(n, q))
}

// rankIndex is the 0-based index of the nearest-rank q-quantile in a
// sorted slice of n samples.
func rankIndex(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// selectKth partially orders xs so xs[k] is the value a full sort would
// put there, and returns it (Hoare quickselect, median-of-three pivot).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}

// quantileOf returns the nearest-rank q-quantile of a small slice of
// values without disturbing the caller's order.
func quantileOf(vals []float64, q float64) float64 {
	s := samples{xs: append([]float64(nil), vals...)}
	return s.quantile(q)
}
