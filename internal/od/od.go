// Package od computes the paper's Outlying Degree (§2):
//
//	OD(p, s) = Σ_{i=1..k} Dist_s(p, p_i),  p_i ∈ KNNSet(p, s)
//
// the sum of distances from p to its k nearest neighbours in subspace
// s. The Evaluator wraps a knn.Searcher, adds the optional
// dimensionality normalization discussed in DESIGN.md, answers the
// lattice's threshold question OD(p, s) ≥ T (Exceeds) without always
// finishing the k-NN search, and caches what it learns per (query,
// subspace) so repeated lattice probes of the same subspace are free.
package od

import (
	"fmt"
	"math"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Normalization selects how OD values are made comparable across
// subspace dimensionalities.
type Normalization uint8

const (
	// NormNone is the paper's literal definition: raw distance sums
	// compared against one global threshold T.
	NormNone Normalization = iota
	// NormDim divides each distance by sqrt(|s|) (L2), |s| (L1) or 1
	// (LInf), removing the systematic growth of distances with
	// dimensionality. OD monotonicity across the lattice no longer
	// holds under NormDim, so HOS-Miner's pruning must not be combined
	// with it; it exists for the naive baseline and for effectiveness
	// studies.
	NormDim
)

// String names the normalization.
func (n Normalization) String() string {
	switch n {
	case NormNone:
		return "none"
	case NormDim:
		return "dim"
	default:
		return fmt.Sprintf("Normalization(%d)", uint8(n))
	}
}

// Evaluator computes OD values for query points against a dataset.
// An Evaluator is single-goroutine (its searcher carries reusable
// scratch); give each worker its own.
type Evaluator struct {
	ds       *vector.Dataset
	searcher knn.Searcher
	// decider is searcher's threshold-decision capability, nil when the
	// searcher lacks it or normalization rescales the sum after the
	// search (then Exceeds falls back to OD(...) ≥ T).
	decider knn.Decider
	metric  vector.Metric
	k       int
	norm    Normalization

	evaluations int64

	// borrow is the reusable Query handed out by BorrowQuery.
	borrow Query
	// scratch is an opaque engine-owned working set (the core layer
	// attaches its per-evaluator search scratch here so pooled
	// evaluators carry it across queries).
	scratch any
}

// NewEvaluator builds an Evaluator. searcher must be constructed over
// the same dataset and metric.
func NewEvaluator(ds *vector.Dataset, searcher knn.Searcher, metric vector.Metric, k int, norm Normalization) (*Evaluator, error) {
	if ds == nil {
		return nil, fmt.Errorf("od: nil dataset")
	}
	if searcher == nil {
		return nil, fmt.Errorf("od: nil searcher")
	}
	if !metric.Valid() {
		return nil, fmt.Errorf("od: invalid metric %v", metric)
	}
	if k < 1 {
		return nil, fmt.Errorf("od: k = %d, need k ≥ 1", k)
	}
	if k >= ds.N() {
		return nil, fmt.Errorf("od: k = %d must be smaller than the dataset size %d (self excluded)", k, ds.N())
	}
	if norm > NormDim {
		return nil, fmt.Errorf("od: invalid normalization %v", norm)
	}
	e := &Evaluator{ds: ds, searcher: searcher, metric: metric, k: k, norm: norm}
	if d, ok := searcher.(knn.Decider); ok && norm == NormNone {
		e.decider = d
	}
	return e, nil
}

// K returns the neighbourhood size.
func (e *Evaluator) K() int { return e.k }

// Metric returns the distance metric in use.
func (e *Evaluator) Metric() vector.Metric { return e.metric }

// Dataset returns the underlying dataset.
func (e *Evaluator) Dataset() *vector.Dataset { return e.ds }

// Evaluations returns how many OD computations and threshold
// decisions were performed (cache hits in Query excluded).
func (e *Evaluator) Evaluations() int64 { return e.evaluations }

// SearchStats returns the work counters of the evaluator's k-NN
// searcher.
func (e *Evaluator) SearchStats() knn.SearchStats { return e.searcher.Stats() }

// Scratch returns the engine-attached opaque scratch value, or nil.
func (e *Evaluator) Scratch() any { return e.scratch }

// SetScratch attaches an opaque per-evaluator scratch owned by the
// engine layer above. The evaluator only stores it, so pooled
// evaluators keep their warmed working sets without od depending on
// engine types.
func (e *Evaluator) SetScratch(v any) { e.scratch = v }

// OD computes the outlying degree of an arbitrary point in subspace
// s. exclude is the dataset index of the point itself when it is a
// dataset member (-1 otherwise), so a point never counts as its own
// neighbour.
//
//hos:hotpath
func (e *Evaluator) OD(p []float64, s subspace.Mask, exclude int) float64 {
	if s.IsEmpty() {
		return 0
	}
	e.evaluations++
	nbs := e.searcher.KNN(p, s, e.k, exclude)
	sum := knn.SumDistances(nbs)
	if e.norm == NormDim {
		sum = normalizeSum(sum, e.metric, s)
	}
	return sum
}

// Exceeds reports whether OD(p, s) ≥ T — bit for bit the answer of
// e.OD(p, s, exclude) >= T, T equal to an OD value included — stopping
// the k-NN search as soon as an exact bound settles it (see
// knn.Decider). Without a deciding searcher, or under NormDim, it
// computes OD and compares.
//
//hos:hotpath
func (e *Evaluator) Exceeds(p []float64, s subspace.Mask, exclude int, T float64) bool {
	if e.decider == nil || s.IsEmpty() {
		return e.OD(p, s, exclude) >= T
	}
	e.evaluations++
	return e.decider.Exceeds(p, s, e.k, exclude, T)
}

// ODOfPoint computes OD for dataset point idx (self-excluding).
func (e *Evaluator) ODOfPoint(idx int, s subspace.Mask) float64 {
	return e.OD(e.ds.Point(idx), s, idx)
}

// FullSpaceODs computes OD in the full space for every dataset point.
// It is the workhorse behind quantile-based threshold selection and
// the classical "space → outliers" baselines.
func (e *Evaluator) FullSpaceODs() []float64 {
	full := subspace.Full(e.ds.Dim())
	out := make([]float64, e.ds.N())
	for i := range out {
		out[i] = e.ODOfPoint(i, full)
	}
	return out
}

func normalizeSum(sum float64, m vector.Metric, s subspace.Mask) float64 {
	switch m {
	case vector.L2:
		return sum / math.Sqrt(float64(s.Card()))
	case vector.L1:
		return sum / float64(s.Card())
	default:
		return sum
	}
}

// entry is what a cache knows about OD(p, s) for one subspace: its
// exact value, or only a verdict against a threshold.
type entry struct {
	v    float64 // the exact OD, or the threshold of a verdict
	kind entryKind
}

type entryKind uint8

const (
	exactOD entryKind = iota // OD == v
	atLeast                  // OD ≥ v
	below                    // OD < v
)

// verdict records the outcome of OD ≥ T.
//
//hos:hotpath
func verdict(yes bool, T float64) entry {
	if yes {
		return entry{v: T, kind: atLeast}
	}
	return entry{v: T, kind: below}
}

// decide answers OD ≥ T from the entry when it can: always for an
// exact value, and for a verdict whose threshold bounds T on the
// right side (OD ≥ v ≥ T, or OD < v ≤ T).
//
//hos:hotpath
func (en entry) decide(T float64) (yes, ok bool) {
	switch en.kind {
	case exactOD:
		return en.v >= T, true
	case atLeast:
		return true, T <= en.v
	default:
		return false, T >= en.v
	}
}

// Query is a per-point OD cache. HOS-Miner's dynamic search may probe
// a subspace more than once across phases; the cache makes the second
// probe free and exposes an exact count of distinct evaluations. A
// Query built by NewSharedQuery additionally consults (and populates)
// a batch-wide SharedCache before computing, so identical probes from
// sibling queries in the same batch are also free.
//
// Entries hold an exact OD (from OD) or a threshold verdict (from
// Exceeds). A verdict answers later Exceeds calls it bounds; OD never
// returns one — it recomputes and upgrades the entry to the value.
type Query struct {
	eval    *Evaluator
	point   []float64
	exclude int
	cache   map[subspace.Mask]entry

	// shared is the optional batch-wide second-level cache; skeyRow /
	// skeyPoint are this point's identity within it (computed once at
	// construction, see sharedKey).
	shared    *SharedCache
	skeyRow   int
	skeyPoint string

	hits       int64
	misses     int64
	sharedHits int64
}

// NewQuery prepares a cached OD oracle for one query point. exclude
// follows the OD convention (-1 for external points).
func (e *Evaluator) NewQuery(point []float64, exclude int) *Query {
	return &Query{
		eval:    e,
		point:   append([]float64(nil), point...),
		exclude: exclude,
		cache:   make(map[subspace.Mask]entry),
	}
}

// NewSharedQuery is NewQuery with a batch-wide second-level OD memo.
// A nil shared degrades to exactly NewQuery. The Query itself remains
// single-goroutine; only the SharedCache is safe to share.
func (e *Evaluator) NewSharedQuery(point []float64, exclude int, shared *SharedCache) *Query {
	q := e.NewQuery(point, exclude)
	if shared != nil {
		q.shared = shared
		q.skeyRow, q.skeyPoint = pointIdentity(q.point, exclude)
	}
	return q
}

// BorrowQuery is the pooled counterpart of NewSharedQuery: it reuses
// the evaluator's single resident Query — point buffer, cache map
// (cleared, buckets retained) and counters — so a steady-state query
// performs no per-query allocation. The returned Query is owned by
// the evaluator and is valid only until the next BorrowQuery call on
// it; callers that need an independent lifetime use NewQuery /
// NewSharedQuery instead.
func (e *Evaluator) BorrowQuery(point []float64, exclude int, shared *SharedCache) *Query {
	q := &e.borrow
	q.eval = e
	q.point = append(q.point[:0], point...)
	q.exclude = exclude
	if q.cache == nil {
		q.cache = make(map[subspace.Mask]entry)
	} else {
		clear(q.cache)
	}
	q.shared = shared
	q.skeyRow, q.skeyPoint = 0, ""
	q.hits, q.misses, q.sharedHits = 0, 0, 0
	if shared != nil {
		q.skeyRow, q.skeyPoint = pointIdentity(q.point, exclude)
	}
	return q
}

// NewQueryForPoint prepares a cached OD oracle for dataset point idx.
func (e *Evaluator) NewQueryForPoint(idx int) *Query {
	return e.NewQuery(e.ds.Point(idx), idx)
}

// OD returns the (possibly cached) outlying degree in subspace s.
//
//hos:hotpath
func (q *Query) OD(s subspace.Mask) float64 {
	if en, ok := q.cache[s]; ok && en.kind == exactOD {
		q.hits++
		return en.v
	}
	if q.shared != nil {
		if v, ok := q.shared.get(q.sharedKey(s)); ok {
			q.sharedHits++
			q.cache[s] = entry{v: v}
			return v
		}
	}
	q.misses++
	v := q.eval.OD(q.point, s, q.exclude)
	q.cache[s] = entry{v: v}
	if q.shared != nil {
		q.shared.put(q.sharedKey(s), v)
	}
	return v
}

// Exceeds reports whether OD(s) ≥ T, from the cache when an entry
// settles it and otherwise through Evaluator.Exceeds, whose verdict it
// then caches.
//
//hos:hotpath
func (q *Query) Exceeds(s subspace.Mask, T float64) bool {
	if en, ok := q.cache[s]; ok {
		if yes, ok := en.decide(T); ok {
			q.hits++
			return yes
		}
	}
	if q.shared != nil {
		if yes, ok := q.shared.decide(q.sharedKey(s), T); ok {
			q.sharedHits++
			q.cache[s] = verdict(yes, T)
			return yes
		}
	}
	q.misses++
	yes := q.eval.Exceeds(q.point, s, q.exclude, T)
	en := verdict(yes, T)
	q.cache[s] = en
	if q.shared != nil {
		q.shared.store(q.sharedKey(s), en)
	}
	return yes
}

// sharedKey is this point's shared-cache key for subspace s.
//
//hos:hotpath
func (q *Query) sharedKey(s subspace.Mask) sharedKey {
	return sharedKey{row: q.skeyRow, point: q.skeyPoint, mask: s}
}

// Point returns a copy of the query point.
func (q *Query) Point() []float64 { return append([]float64(nil), q.point...) }

// CacheStats returns (hits, misses): hits answered by this Query's own
// cache and misses that required a fresh OD computation. Probes
// answered by a shared batch cache count in neither (see SharedHits),
// so misses remains an exact count of the OD computations this Query
// performed itself.
func (q *Query) CacheStats() (hits, misses int64) { return q.hits, q.misses }

// SharedHits returns how many probes were answered by the batch-wide
// shared cache (always 0 for a Query built by NewQuery).
func (q *Query) SharedHits() int64 { return q.sharedHits }
