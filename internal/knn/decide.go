package knn

import (
	"math"
	"slices"

	"repro/internal/subspace"
	"repro/internal/vector"
)

// Decider is the optional threshold-decision capability of a Searcher.
// Exceeds reports whether SumDistances(KNN(query, s, k, exclude)) ≥ T,
// bit for bit, without necessarily finishing the k-NN search.
// HOS-Miner's lattice only ever needs that yes/no answer (OD ≥ T), so
// a searcher that can stop as soon as a bound settles it saves most of
// the search. Searchers without the capability (wrappers, the sharded
// engine) are used through KNN instead.
//
// The early exits are exact because the bounds add the same
// finalized distances in the same ascending order as SumDistances,
// and floating-point rounding is monotone: the candidates held so far
// are elementwise ≥ the true k-NN distances (an upper bound, "no" once
// it is < T), and min(c_i, r), with r a lower bound on every point not
// yet examined, is elementwise ≤ them (a lower bound, "yes" once it is
// ≥ T). DESIGN.md §14 gives the full argument, T equal to OD included.
type Decider interface {
	Exceeds(query []float64, s subspace.Mask, k int, exclude int, T float64) bool
}

// ascending returns the heap's retained distances in ascending order,
// finalized (square-rooted when sq, i.e. the heap holds squared L2
// distances). The view is recomputed only when the heap changed.
//
//hos:hotpath
func (sc *Scratch) ascending(sq bool) []float64 {
	if sc.ascGen == sc.Heap.gen {
		return sc.asc
	}
	sc.asc = sc.asc[:0]
	for _, nb := range sc.Heap.items {
		sc.asc = append(sc.asc, nb.Dist)
	}
	slices.Sort(sc.asc)
	if sq {
		for i, v := range sc.asc {
			sc.asc[i] = math.Sqrt(v)
		}
	}
	sc.ascGen = sc.Heap.gen
	return sc.asc
}

// Sum returns the ascending sum of the heap's finalized distances —
// bit-identical to SumDistances over the sorted KNN result.
//
//hos:hotpath
func (sc *Scratch) Sum(sq bool) float64 {
	var sum float64
	for _, v := range sc.ascending(sq) {
		sum += v
	}
	return sum
}

// Below reports the upper-bound exit: the heap is full and its
// ascending sum is < T, so the final sum is < T too.
//
//hos:hotpath
func (sc *Scratch) Below(T float64, sq bool) bool {
	return sc.Heap.Full() && sc.Sum(sq) < T
}

// Reaches reports the lower-bound exit: every point not yet offered to
// the heap is at distance ≥ r (in the heap's domain: squared when sq),
// and Σ min(c_i, r) over the k slots — an empty slot counting r — is
// ≥ T, so the final sum is ≥ T too. The caller must guarantee at least
// k candidate points exist, or an empty slot would count a distance no
// neighbour has.
//
//hos:hotpath
func (sc *Scratch) Reaches(r, T float64, sq bool) bool {
	if sq {
		r = math.Sqrt(r)
	}
	asc := sc.ascending(sq)
	var sum float64
	for _, v := range asc {
		sum += min(v, r)
	}
	for i := len(asc); i < sc.Heap.k; i++ {
		sum += r
	}
	return sum >= T
}

// decideBlock is how many rows LinearSearcher.Exceeds scans between
// upper-bound checks: long enough to amortise the check, short enough
// that a decision settled early stops within a few percent of a
// typical dataset.
const decideBlock = 32

// Exceeds implements Decider. A scan has no bound on the rows it has
// not read yet, so only the upper-bound exit applies; it is checked
// once per decideBlock rows once the heap is full.
//
//hos:hotpath
func (l *LinearSearcher) Exceeds(query []float64, s subspace.Mask, k int, exclude int, T float64) bool {
	l.stats.Queries.Add(1)
	if k <= 0 || s.IsEmpty() {
		return 0 >= T
	}
	dims := l.scratch.Begin(s, k)
	h := &l.scratch.Heap
	n := l.ds.N()
	d := l.ds.Dim()
	slab := l.ds.Slab()
	useSq := l.metric == vector.L2
	examined := 0
	for start := 0; start < n; start += decideBlock {
		end := min(start+decideBlock, n)
		for i, off := start, start*d; i < end; i, off = i+1, off+d {
			if i == exclude {
				continue
			}
			examined++
			row := slab[off : off+d]
			var dist float64
			if useSq {
				dist = vector.SqDistL2Dims(dims, query, row)
			} else {
				dist = vector.DistDims(l.metric, dims, query, row)
			}
			h.Push(i, dist)
		}
		if end < n && l.scratch.Below(T, useSq) {
			l.stats.PointsExamined.Add(int64(examined))
			l.stats.EarlyExits.Add(1)
			return false
		}
	}
	l.stats.PointsExamined.Add(int64(examined))
	return l.scratch.Sum(useSq) >= T
}
