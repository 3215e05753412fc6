package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/subspace"
)

// ScanHit is one dataset point found to be an outlier in at least one
// subspace during a whole-dataset scan.
type ScanHit struct {
	Index int
	// Minimal outlying subspaces of the point (§3.4 filtered).
	Minimal []subspace.Mask
	// OutlyingCount is the size of the full outlying set.
	OutlyingCount int
	// FullSpaceOD is the point's OD in the full attribute space
	// (a convenient severity proxy for ranking).
	FullSpaceOD float64
}

// ScanOptions tunes ScanAll.
type ScanOptions struct {
	// MaxResults bounds the number of hits returned (0 = all).
	MaxResults int
	// SortBySeverity orders hits by descending full-space OD instead
	// of ascending index.
	SortBySeverity bool
	// Workers is the scan's fan-out (≤ 0 selects GOMAXPROCS; clamped
	// to the dataset size). Answers do not depend on it; only
	// wall-clock does.
	Workers int
	// OnProgress, when non-nil, is invoked after each point's subspace
	// search finishes, with the number of points evaluated so far and
	// the dataset total — the hook an async serving layer uses to
	// report real scan progress. The done values across all calls cover
	// 1..total exactly once and never regress, but with more than one
	// worker (including scatter-gather sharded scans) the callback runs
	// on the worker goroutines, so calls may be concurrent and may
	// reach a consumer out of order: consumers should retain the
	// maximum. The callback must be cheap and safe for concurrent use;
	// it is not called for points a cancelled scan never evaluated.
	OnProgress func(done, total int)
}

// ScanAll runs the outlying-subspace query for every dataset point
// and returns the points with non-empty answer sets — the system-
// level "detect the outlying subspaces of high-dimensional data"
// operation. Cost is N times the per-query cost; intended for
// moderate datasets or offline runs.
//
// The sweep fans out over opts.Workers goroutines, each with a private
// evaluator and rng — even at Workers = 1 it never touches the Miner's
// shared evaluator or rng — so, post-Preprocess, any number of ScanAll
// and QueryWith calls may run concurrently. PolicyRandom draws from
// per-worker deterministic RNGs, so the *work* per point can differ
// between worker counts; the answer sets cannot.
//
// ctx is checked between points and *within* each point's subspace
// search (see SearchContext), so cancelling mid-way through a
// high-dimensional point — whose lattice alone can cost tens of
// thousands of OD evaluations — returns ctx.Err() promptly instead of
// finishing the point first.
func (m *Miner) ScanAll(ctx context.Context, opts ScanOptions) ([]ScanHit, error) {
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	if opts.MaxResults < 0 {
		return nil, fmt.Errorf("core: MaxResults = %d", opts.MaxResults)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.ds.N() {
		workers = m.ds.N()
	}
	if workers < 1 {
		workers = 1
	}

	d := m.ds.Dim()
	n := m.ds.N()
	fullSpace := subspace.Full(d)
	perPoint := make([]*ScanHit, n)
	errs := make([]error, workers)
	// evaluated feeds OnProgress: one shared monotonic counter across
	// all workers, so the callback sees every done value in 1..n
	// exactly once (though possibly out of delivery order).
	var evaluated atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			eval, err := m.workerEvaluator()
			if err != nil {
				errs[worker] = err
				return
			}
			rng := newDeterministicRng(m.cfg.Seed, int64(worker))
			for i := worker; i < n; i += workers {
				if err := ctx.Err(); err != nil {
					errs[worker] = err
					return
				}
				q := eval.NewQueryForPoint(i)
				res, err := SearchContext(ctx, q, d, m.threshold, m.priors, m.cfg.Policy, rng)
				if err != nil {
					errs[worker] = err
					return
				}
				if len(res.Outlying) > 0 {
					perPoint[i] = &ScanHit{
						Index:         i,
						Minimal:       res.Minimal,
						OutlyingCount: len(res.Outlying),
						FullSpaceOD:   eval.OD(m.ds.Point(i), fullSpace, i),
					}
				}
				if opts.OnProgress != nil {
					opts.OnProgress(int(evaluated.Add(1)), n)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var hits []ScanHit
	for _, h := range perPoint {
		if h != nil {
			hits = append(hits, *h)
		}
	}
	if opts.SortBySeverity {
		sort.Slice(hits, func(a, b int) bool {
			if hits[a].FullSpaceOD != hits[b].FullSpaceOD {
				return hits[a].FullSpaceOD > hits[b].FullSpaceOD
			}
			return hits[a].Index < hits[b].Index
		})
	}
	if opts.MaxResults > 0 && len(hits) > opts.MaxResults {
		hits = hits[:opts.MaxResults]
	}
	return hits, nil
}
