package xtree

import (
	"math"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Searcher adapts a Tree to the knn.Searcher interface with best-first
// (Hjaltason–Samet) traversal: nodes are expanded in order of MINDIST
// to the query within the search subspace, and traversal stops as soon
// as the k-th nearest candidate is closer than the nearest unexpanded
// node. See knn.Searcher for the scratch-ownership and concurrency
// contract: one goroutine per Searcher, results valid until the next
// KNN call, Stats/ResetStats safe concurrently.
type Searcher struct {
	tree    *Tree
	stats   knn.AtomicStats
	scratch knn.Scratch
	pq      []queueItem // frontier heap storage, reused across queries
}

// NewSearcher wraps t in a knn.Searcher.
func NewSearcher(t *Tree) *Searcher { return &Searcher{tree: t} }

// queueItem is a pending tree node in the best-first frontier.
type queueItem struct {
	id      int32
	minDist float64
}

// pqPush adds an item to the min-heap in pq.
func pqPush(pq []queueItem, it queueItem) []queueItem {
	pq = append(pq, it)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pq[parent].minDist <= pq[i].minDist {
			break
		}
		pq[parent], pq[i] = pq[i], pq[parent]
		i = parent
	}
	return pq
}

// pqPop removes and returns the minimum item.
func pqPop(pq []queueItem) (queueItem, []queueItem) {
	top := pq[0]
	last := len(pq) - 1
	pq[0] = pq[last]
	pq = pq[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(pq) && pq[l].minDist < pq[small].minDist {
			small = l
		}
		if r < len(pq) && pq[r].minDist < pq[small].minDist {
			small = r
		}
		if small == i {
			break
		}
		pq[i], pq[small] = pq[small], pq[i]
		i = small
	}
	return top, pq
}

// minDistSqL2Dims is MBR.MinDistSqL2 over precomputed dimension
// indices and the arena's flat bound rows. One accumulator, ascending
// dimension order — bit-identical to the closure form it replaces.
func minDistSqL2Dims(dims []int, q, lo, hi []float64) float64 {
	var sum float64
	for _, d := range dims {
		diff := axisGap(q[d], lo[d], hi[d])
		sum += diff * diff
	}
	return sum
}

// minDistDims is MBR.MinDist over precomputed dimension indices.
func minDistDims(m vector.Metric, dims []int, q, lo, hi []float64) float64 {
	switch m {
	case vector.L2:
		return math.Sqrt(minDistSqL2Dims(dims, q, lo, hi))
	case vector.L1:
		var sum float64
		for _, d := range dims {
			sum += axisGap(q[d], lo[d], hi[d])
		}
		return sum
	case vector.LInf:
		var max float64
		for _, d := range dims {
			if diff := axisGap(q[d], lo[d], hi[d]); diff > max {
				max = diff
			}
		}
		return max
	default:
		panic("xtree: unknown metric")
	}
}

// KNN implements knn.Searcher.
//
//hos:hotpath
func (s *Searcher) KNN(query []float64, sub subspace.Mask, k int, exclude int) []knn.Neighbor {
	s.stats.Queries.Add(1)
	if k <= 0 || sub.IsEmpty() || s.tree.size == 0 {
		return nil
	}
	s.search(query, sub, k, exclude, false, 0)
	res := s.scratch.Heap.Sorted()
	if s.tree.metric == vector.L2 {
		for i := range res {
			res[i].Dist = math.Sqrt(res[i].Dist)
		}
	}
	return res
}

// Exceeds implements knn.Decider: KNN's traversal, stopped as soon as
// either exact bound settles the answer — "no" when the heap is full
// and its ascending sum is < T, "yes" when a node popped at
// min-distance r (a lower bound on every point not yet examined) gives
// Σ min(c_i, r) ≥ T. It never runs longer than KNN.
//
//hos:hotpath
func (s *Searcher) Exceeds(query []float64, sub subspace.Mask, k int, exclude int, T float64) bool {
	if k <= 0 || sub.IsEmpty() || s.tree.size <= k {
		// Too few points to fill every slot: the lower bound's empty
		// slots would count neighbours that do not exist.
		return knn.SumDistances(s.KNN(query, sub, k, exclude)) >= T
	}
	s.stats.Queries.Add(1)
	if decided, verdict := s.search(query, sub, k, exclude, true, T); decided {
		s.stats.EarlyExits.Add(1)
		return verdict
	}
	return s.scratch.Sum(s.tree.metric == vector.L2) >= T
}

// search is the best-first (Hjaltason–Samet) traversal behind KNN and
// Exceeds: nodes are expanded in order of MINDIST to the query within
// the search subspace, and the traversal stops once the k-th nearest
// candidate is closer than the nearest unexpanded node. The result is
// left in the scratch heap (squared distances under L2). With decide
// set it also stops, reporting decided, as soon as the heap's bounds
// settle Σ distances ≥ T; a pop that would end the traversal anyway
// makes both bounds the exact sum, so it is left to the caller.
//
//hos:hotpath
func (s *Searcher) search(query []float64, sub subspace.Mask, k int, exclude int, decide bool, T float64) (decided, verdict bool) {
	t := s.tree
	dims := s.scratch.Begin(sub, k)
	sc := &s.scratch
	best := &sc.Heap
	a := &t.ar
	d := a.dim
	slab := t.ds.Slab()
	useSq := t.metric == vector.L2

	nodeDist := func(id int32) float64 {
		base := int(id) * d
		lo := a.mbrMin[base : base+d]
		hi := a.mbrMax[base : base+d]
		if useSq {
			return minDistSqL2Dims(dims, query, lo, hi)
		}
		return minDistDims(t.metric, dims, query, lo, hi)
	}

	var nodesVisited, pointsExamined int64
	pq := s.pq[:0]
	pq = pqPush(pq, queueItem{id: 0, minDist: nodeDist(0)})
	for len(pq) > 0 {
		var item queueItem
		item, pq = pqPop(pq)
		if w, full := best.WorstDist(); full && item.minDist > w {
			break // nothing closer remains
		}
		if decide {
			if sc.Below(T, useSq) {
				decided, verdict = true, false
				break
			}
			if sc.Reaches(item.minDist, T, useSq) {
				decided, verdict = true, true
				break
			}
		}
		nodesVisited++
		n := &a.nodes[item.id]
		if n.isLeaf() {
			for _, idx := range a.rows(item.id) {
				i := int(idx)
				if i == exclude {
					continue
				}
				pointsExamined++
				row := slab[i*d : i*d+d]
				var dist float64
				if useSq {
					dist = vector.SqDistL2Dims(dims, query, row)
				} else {
					dist = vector.DistDims(t.metric, dims, query, row)
				}
				best.Push(i, dist)
			}
			continue
		}
		for _, c := range a.kids(item.id) {
			md := nodeDist(c)
			if w, full := best.WorstDist(); full && md > w {
				continue
			}
			pq = pqPush(pq, queueItem{id: c, minDist: md})
		}
	}
	s.pq = pq[:0]
	s.stats.NodesVisited.Add(nodesVisited)
	s.stats.PointsExamined.Add(pointsExamined)
	return decided, verdict
}

// Range returns the indices of all points within radius r of the
// query in subspace sub (excluding index exclude), in ascending index
// order. Unlike KNN, the returned slice is freshly allocated (Range is
// not on the OD hot path).
func (s *Searcher) Range(query []float64, sub subspace.Mask, r float64, exclude int) []int {
	s.stats.Queries.Add(1)
	if sub.IsEmpty() || r < 0 {
		return nil
	}
	t := s.tree
	a := &t.ar
	d := a.dim
	s.scratch.Dims = sub.AppendDims(s.scratch.Dims[:0])
	dims := s.scratch.Dims
	var nodesVisited, pointsExamined int64
	var out []int
	var walk func(id int32)
	walk = func(id int32) {
		nodesVisited++
		n := &a.nodes[id]
		if n.isLeaf() {
			for _, idx := range a.rows(id) {
				i := int(idx)
				if i == exclude {
					continue
				}
				pointsExamined++
				if vector.DistDims(t.metric, dims, query, t.ds.Point(i)) <= r {
					out = append(out, i)
				}
			}
			return
		}
		for _, c := range a.kids(id) {
			base := int(c) * d
			if minDistDims(t.metric, dims, query, a.mbrMin[base:base+d], a.mbrMax[base:base+d]) <= r {
				walk(c)
			}
		}
	}
	walk(0)
	s.stats.NodesVisited.Add(nodesVisited)
	s.stats.PointsExamined.Add(pointsExamined)
	// Indices accumulate in leaf order; normalise to ascending.
	insertionSortInts(out)
	return out
}

// Stats implements knn.Searcher.
func (s *Searcher) Stats() knn.SearchStats { return s.stats.Snapshot() }

// ResetStats implements knn.Searcher.
func (s *Searcher) ResetStats() { s.stats.Reset() }

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
