package vector

import (
	"fmt"
	"math"
	"sort"
)

// ColumnStats summarises one dimension of a dataset.
type ColumnStats struct {
	Min, Max   float64
	Mean       float64
	StdDev     float64 // population standard deviation
	NaNOrInf   int     // count of non-finite values encountered
	SampleSize int
}

// Stats computes per-dimension summary statistics. Non-finite values
// are counted but excluded from the aggregates.
func (ds *Dataset) Stats() []ColumnStats {
	out := make([]ColumnStats, ds.d)
	for j := range out {
		out[j] = ds.ColumnStats(j)
	}
	return out
}

// ColumnStats computes summary statistics for dimension j.
func (ds *Dataset) ColumnStats(j int) ColumnStats {
	cs := ColumnStats{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum, sumSq float64
	for i := 0; i < ds.n; i++ {
		v := ds.data[i*ds.d+j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			cs.NaNOrInf++
			continue
		}
		cs.SampleSize++
		if v < cs.Min {
			cs.Min = v
		}
		if v > cs.Max {
			cs.Max = v
		}
		sum += v
		sumSq += v * v
	}
	if cs.SampleSize > 0 {
		n := float64(cs.SampleSize)
		cs.Mean = sum / n
		variance := sumSq/n - cs.Mean*cs.Mean
		if variance < 0 {
			variance = 0 // numeric noise
		}
		cs.StdDev = math.Sqrt(variance)
	} else {
		cs.Min, cs.Max = math.NaN(), math.NaN()
		cs.Mean, cs.StdDev = math.NaN(), math.NaN()
	}
	return cs
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the given sample
// using linear interpolation between order statistics. It returns an
// error on an empty sample or out-of-range q. The input slice is not
// modified.
func Quantile(sample []float64, q float64) (float64, error) {
	if len(sample) == 0 {
		return 0, fmt.Errorf("vector: quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("vector: quantile %v out of [0,1]", q)
	}
	s := append([]float64(nil), sample...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// MinMaxNormalize rescales every dimension to [0,1] in place (a new
// Dataset is returned; the receiver is unchanged). Constant dimensions
// map to 0. The returned scale information allows denormalization.
func (ds *Dataset) MinMaxNormalize() (*Dataset, []ColumnStats) {
	stats := ds.Stats()
	out := ds.Clone()
	for j := 0; j < ds.d; j++ {
		lo, hi := stats[j].Min, stats[j].Max
		span := hi - lo
		for i := 0; i < ds.n; i++ {
			idx := i*ds.d + j
			if span > 0 {
				out.data[idx] = (out.data[idx] - lo) / span
			} else {
				out.data[idx] = 0
			}
		}
	}
	return out, stats
}

// ZScoreNormalize standardises every dimension to zero mean and unit
// variance (constant dimensions map to 0). A new Dataset is returned.
func (ds *Dataset) ZScoreNormalize() (*Dataset, []ColumnStats) {
	stats := ds.Stats()
	out := ds.Clone()
	for j := 0; j < ds.d; j++ {
		mu, sd := stats[j].Mean, stats[j].StdDev
		for i := 0; i < ds.n; i++ {
			idx := i*ds.d + j
			if sd > 0 {
				out.data[idx] = (out.data[idx] - mu) / sd
			} else {
				out.data[idx] = 0
			}
		}
	}
	return out, stats
}
