package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the Harrell-Davis estimate of the p-th percentile
// (p in (0,100)) of xs, which it sorts in place: a Beta-weighted mean of
// all order statistics. Virtual latencies are whole nanoseconds from a
// discrete cost table, so hundreds of ops tie on one value and a plain
// order statistic would not move between seeds; this estimate does.
func percentile(xs []int64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	a, b := p/100*float64(n+1), (1-p/100)*float64(n+1)
	var est float64
	prev := 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * float64(xs[i-1])
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betai/betacf).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return h
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile picks the highest candidate percentile with at least ten
// samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if n-int(math.Ceil(p/100*float64(n)-1e-9)) >= 10 {
			return p
		}
	}
	return 50
}

// median of a float sample (the mean of the middle two for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// medianOf maps each round to a value and returns the median.
func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
