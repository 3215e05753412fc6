package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/od"
)

// This file is the exported concurrent query surface of the Miner.
// The contract (documented on the Miner type): once Preprocess or
// ImportState has completed, the Miner's shared state is read-only;
// what is NOT shareable is an od.Evaluator (its searcher keeps work
// counters) and the Miner's rand.Rand. QueryWith therefore takes an
// evaluator owned by the calling goroutine — obtained from
// NewWorkerEvaluator or, cheaper under churn, from an EvaluatorPool —
// and derives any randomness it needs from an atomic sequence.

// ErrNotPreprocessed is returned by QueryWith when neither Preprocess
// nor ImportState has completed. The concurrent path never
// preprocesses lazily: preprocessing mutates shared state, so it must
// happen before goroutines fan out.
var ErrNotPreprocessed = errors.New("core: miner not preprocessed (call Preprocess or ImportState before concurrent queries)")

// Preprocessed reports whether Preprocess or ImportState has
// completed, i.e. whether the Miner is ready for concurrent use.
func (m *Miner) Preprocessed() bool { return m.preprocessed }

// Config returns the Miner's configuration (a copy).
func (m *Miner) Config() Config { return m.cfg }

// NewWorkerEvaluator builds an independent OD evaluator over the
// Miner's dataset and index for use by one goroutine at a time. The
// X-tree (when present) is shared — it is immutable after Build and
// safe for concurrent reads — so construction is cheap: only the
// searcher cursor and its counters are per-evaluator.
func (m *Miner) NewWorkerEvaluator() (*od.Evaluator, error) {
	return m.workerEvaluator()
}

// QueryWith answers the outlying-subspace query for point using the
// supplied evaluator, which the caller must own for the duration of
// the call (one evaluator, one goroutine). exclude is the dataset
// index of the point when it is a dataset member (so it never counts
// as its own neighbour) and -1 for external points.
//
// Ownership: the returned QueryResult (including its mask slices) is
// backed by the evaluator's reusable scratch — in steady state a
// QueryWith call allocates nothing. It stays valid only until the
// next query run on the same evaluator (including returning the
// evaluator to a pool); callers that retain it longer must
// QueryResult.Clone it first.
//
// Unlike OutlyingSubspaces, QueryWith never triggers lazy
// preprocessing; it fails with ErrNotPreprocessed instead. Any number
// of QueryWith calls may run concurrently with each other and with
// ScanAll.
//
//hos:hotpath
func (m *Miner) QueryWith(eval *od.Evaluator, point []float64, exclude int) (*QueryResult, error) {
	if !m.preprocessed {
		return nil, ErrNotPreprocessed
	}
	if eval == nil {
		return nil, fmt.Errorf("core: QueryWith: nil evaluator")
	}
	if len(point) != m.ds.Dim() {
		return nil, fmt.Errorf("core: query point has %d dims, dataset %d", len(point), m.ds.Dim())
	}
	if exclude < -1 || exclude >= m.ds.N() {
		return nil, fmt.Errorf("core: exclude index %d out of range [-1,%d)", exclude, m.ds.N())
	}
	return m.searchOne(context.Background(), eval, point, exclude, nil)
}

// searchOne is the shared tail of QueryWith and QueryBatch: run the
// dynamic search for one point on a caller-owned evaluator,
// optionally consulting a batch-wide OD cache. PolicyRandom draws a
// per-call deterministic rng from the atomic query sequence — the
// Miner's own rand.Rand is not shareable across goroutines.
//
// The result lives in the evaluator's search scratch (see
// scratchFor): it is valid until the next searchOne on the same
// evaluator, which is exactly the zero-allocation steady state the
// serving path runs in.
func (m *Miner) searchOne(ctx context.Context, eval *od.Evaluator, point []float64, exclude int, shared *od.SharedCache) (*QueryResult, error) {
	rng := m.rng
	if m.cfg.Policy == PolicyRandom {
		rng = newDeterministicRng(m.cfg.Seed, m.querySeq.Add(1))
	}
	sc := scratchFor(eval)
	q := eval.BorrowQuery(point, exclude, shared)
	if err := searchInto(ctx, sc, q, m.ds.Dim(), m.threshold, m.priors, m.cfg.Policy, rng); err != nil {
		return nil, err
	}
	_, misses := q.CacheStats()
	sc.qres = QueryResult{
		SearchResult:      sc.sres,
		Threshold:         m.threshold,
		ODEvaluations:     misses,
		IsOutlierAnywhere: len(sc.sres.Outlying) > 0,
	}
	return &sc.qres, nil
}

// scratchFor returns the evaluator's resident search scratch,
// attaching a fresh one on first use. The scratch rides along with
// pooled evaluators, so its tracker and buffers stay warm across
// borrows.
func scratchFor(eval *od.Evaluator) *searchScratch {
	if sc, ok := eval.Scratch().(*searchScratch); ok {
		return sc
	}
	sc := &searchScratch{}
	eval.SetScratch(sc)
	return sc
}

// QueryPointWith is QueryWith for dataset member idx.
func (m *Miner) QueryPointWith(eval *od.Evaluator, idx int) (*QueryResult, error) {
	if idx < 0 || idx >= m.ds.N() {
		return nil, fmt.Errorf("core: point index %d out of range [0,%d)", idx, m.ds.N())
	}
	return m.QueryWith(eval, m.ds.Point(idx), idx)
}

// EvaluatorPool recycles worker evaluators across short-lived
// borrowers (e.g. HTTP requests), avoiding a per-request linear-scan
// searcher allocation. Backed by sync.Pool: idle evaluators may be
// dropped under memory pressure and rebuilt on demand.
type EvaluatorPool struct {
	m    *Miner
	pool sync.Pool

	gets   atomic.Int64
	builds atomic.Int64
}

// NewEvaluatorPool builds an evaluator pool for the Miner.
func (m *Miner) NewEvaluatorPool() *EvaluatorPool {
	return &EvaluatorPool{m: m}
}

// Get borrows an evaluator. The caller must return it with Put when
// done and must not use it after.
func (p *EvaluatorPool) Get() (*od.Evaluator, error) {
	p.gets.Add(1)
	if v := p.pool.Get(); v != nil {
		return v.(*od.Evaluator), nil
	}
	p.builds.Add(1)
	return p.m.NewWorkerEvaluator()
}

// Put returns a borrowed evaluator to the pool.
func (p *EvaluatorPool) Put(e *od.Evaluator) {
	if e != nil {
		p.pool.Put(e)
	}
}

// Stats reports (borrows, fresh constructions); the difference is the
// number of reuses.
func (p *EvaluatorPool) Stats() (gets, builds int64) {
	return p.gets.Load(), p.builds.Load()
}
