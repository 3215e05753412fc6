package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMs are the latencies (from intended send time) of the
// results of the given kind, in ms. A request that failed counts as
// missing every limit: its latency is +Inf.
func latenciesMs(rs []Result, kind reqKind) []float64 {
	var out []float64
	for i := range rs {
		if rs[i].Req.Kind != kind {
			continue
		}
		if rs[i].OK() {
			out = append(out, ms(rs[i].Latency()))
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// serviceMs are the send-to-reply times of the answered requests of
// the given kind, in ms.
func serviceMs(rs []Result, kind reqKind) []float64 {
	var out []float64
	for i := range rs {
		if rs[i].Req.Kind == kind && rs[i].OK() {
			out = append(out, ms(rs[i].Service()))
		}
	}
	return out
}

// lagMs is the generator's own lateness per request, in ms.
func lagMs(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i := range rs {
		out[i] = ms(rs[i].Lag())
	}
	return out
}

// countOK is the number of answered requests.
func countOK(rs []Result) int {
	n := 0
	for i := range rs {
		if rs[i].OK() {
			n++
		}
	}
	return n
}
