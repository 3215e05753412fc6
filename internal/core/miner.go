package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
	"repro/internal/xtree"
)

// Backend selects the k-NN engine behind OD evaluation.
type Backend uint8

const (
	// BackendAuto uses an X-tree for datasets above a size threshold
	// and a linear scan below it.
	BackendAuto Backend = iota
	// BackendLinear always scans.
	BackendLinear
	// BackendXTree always uses the X-tree index (§3, "X-tree
	// Indexing" module).
	BackendXTree
)

// autoXTreeThreshold is the dataset size above which BackendAuto
// prefers the X-tree.
const autoXTreeThreshold = 512

// shardIndexKind maps a Backend onto the per-shard index choice of
// internal/shard (BackendAuto is then applied per shard, not to the
// whole dataset).
func (b Backend) shardIndexKind() shard.IndexKind {
	switch b {
	case BackendLinear:
		return shard.IndexLinear
	case BackendXTree:
		return shard.IndexXTree
	default:
		return shard.IndexAuto
	}
}

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendLinear:
		return "linear"
	case BackendXTree:
		return "xtree"
	default:
		return fmt.Sprintf("Backend(%d)", uint8(b))
	}
}

// Config parameterises a Miner.
type Config struct {
	// K is the neighbourhood size of the OD measure (§2).
	K int
	// T is the paper's global outlying-degree threshold: p is an
	// outlier in s iff OD(p, s) ≥ T. Exactly one of T/TQuantile is
	// used: when TQuantile > 0, T is derived at Preprocess time as
	// that quantile of the full-space OD distribution over the
	// dataset.
	T         float64
	TQuantile float64
	// Metric is the distance metric (default L2, as the paper
	// implies).
	Metric vector.Metric
	// SampleSize is the number of sample points for the §3.2 learning
	// process. 0 disables learning (uniform priors are used for
	// queries too).
	SampleSize int
	// Seed drives sampling and PolicyRandom. The same seed reproduces
	// the same run bit-for-bit.
	Seed int64
	// Policy is the layer-ordering strategy (PolicyTSF = the paper).
	Policy Policy
	// Backend selects the k-NN engine.
	Backend Backend
	// Shards partitions the dataset across this many per-shard
	// indexes answered by scatter-gather (internal/shard). 0 means a
	// single unsharded index; any value ≥ 1 routes through the
	// scatter-gather engine (1 = one-shard engine, useful for
	// exercising the plumbing). Sharded answers are byte-identical to
	// unsharded ones (see shard.Merge); Backend then selects the
	// per-shard index, with BackendAuto applied shard by shard.
	Shards int
	// Partitioner assigns rows to shards when Shards > 1 (default
	// round-robin).
	Partitioner shard.Partitioner
}

// Validate checks the configuration against a dataset — the same
// checks NewMiner runs, exported so serialization layers can vet a
// deserialized Config before building anything from it.
func (c Config) Validate(ds *vector.Dataset) error {
	if ds == nil {
		return fmt.Errorf("core: nil dataset")
	}
	return c.validate(ds)
}

func (c *Config) validate(ds *vector.Dataset) error {
	if c.K < 1 {
		return fmt.Errorf("core: K = %d, need ≥ 1", c.K)
	}
	if c.K >= ds.N() {
		return fmt.Errorf("core: K = %d must be below dataset size %d", c.K, ds.N())
	}
	if !c.Metric.Valid() {
		return fmt.Errorf("core: invalid metric")
	}
	if c.TQuantile < 0 || c.TQuantile >= 1 {
		if c.TQuantile != 0 {
			return fmt.Errorf("core: TQuantile %v out of (0,1)", c.TQuantile)
		}
	}
	if c.TQuantile == 0 && c.T <= 0 {
		return fmt.Errorf("core: need a positive T or a TQuantile in (0,1)")
	}
	if c.SampleSize < 0 || c.SampleSize > ds.N() {
		return fmt.Errorf("core: SampleSize %d out of [0,%d]", c.SampleSize, ds.N())
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("core: invalid policy")
	}
	if c.Backend > BackendXTree {
		return fmt.Errorf("core: invalid backend")
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards = %d, need ≥ 0", c.Shards)
	}
	if c.Shards > ds.N() {
		return fmt.Errorf("core: Shards = %d exceeds dataset size %d", c.Shards, ds.N())
	}
	if !c.Partitioner.Valid() {
		return fmt.Errorf("core: invalid partitioner")
	}
	return nil
}

// Miner is the HOS-Miner system: dataset + index + learned priors.
// Construct with NewMiner, then call Preprocess once (indexing +
// learning), then OutlyingSubspaces per query.
//
// Concurrency: a Miner is NOT safe for concurrent use through its
// plain query methods — OutlyingSubspaces and OutlyingSubspacesOfPoint
// share one od.Evaluator (whose k-NN searcher carries mutable work
// counters) and one rand.Rand. After Preprocess (or
// ImportState) has completed, all remaining Miner state — dataset,
// X-tree, threshold, priors, configuration — is read-only, so any
// number of goroutines may query concurrently PROVIDED each uses its
// own evaluator: call QueryWith with an evaluator obtained from
// NewWorkerEvaluator or an EvaluatorPool. ScanAll follows the same
// pattern internally. This is the contract internal/server is
// built on.
type Miner struct {
	cfg    Config
	ds     *vector.Dataset
	eval   *od.Evaluator
	srch   knn.Searcher
	tree   *xtree.Tree   // non-nil when the backend is a single X-tree
	shards *shard.Engine // non-nil when Config.Shards ≥ 1

	threshold    float64
	priors       Priors
	learned      bool
	preprocessed bool
	rng          *rand.Rand

	learnStats LearnStats

	// querySeq numbers QueryWith calls so PolicyRandom stays
	// deterministic per (seed, call) without sharing rng.
	querySeq atomic.Int64

	// defaultPool lazily serves QueryBatch calls that bring no pool of
	// their own, so back-to-back batches reuse warmed evaluators
	// instead of rebuilding them per batch.
	defaultPool     *EvaluatorPool
	defaultPoolOnce sync.Once

	// cachePool recycles per-batch shared OD caches (cleared between
	// batches; the BatchResult only carries a stats snapshot, never
	// the cache itself).
	cachePool sync.Pool
}

// LearnStats summarises the §3.2 learning phase.
type LearnStats struct {
	Samples        int
	ODEvaluations  int64 // OD computations spent on sample searches
	SampledIndices []int
}

// NewMiner validates the configuration and builds the k-NN backend
// (but performs no learning yet; see Preprocess).
func NewMiner(ds *vector.Dataset, cfg Config) (*Miner, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if ds.Dim() < 1 || ds.Dim() > subspace.MaxDim {
		return nil, fmt.Errorf("core: dimensionality %d out of [1,%d]", ds.Dim(), subspace.MaxDim)
	}
	if err := cfg.validate(ds); err != nil {
		return nil, err
	}

	var searcher knn.Searcher
	var tree *xtree.Tree
	var engine *shard.Engine
	if cfg.Shards >= 1 {
		e, err := shard.NewEngine(ds, shard.Config{
			Shards:      cfg.Shards,
			Partitioner: cfg.Partitioner,
			Metric:      cfg.Metric,
			Index:       cfg.Backend.shardIndexKind(),
		})
		if err != nil {
			return nil, err
		}
		engine = e
		s, err := e.NewSearcher()
		if err != nil {
			return nil, err
		}
		searcher = s
	} else if useXTree := cfg.Backend == BackendXTree ||
		(cfg.Backend == BackendAuto && ds.N() >= autoXTreeThreshold); useXTree {
		t, err := xtree.Build(ds, cfg.Metric, xtree.DefaultConfig())
		if err != nil {
			return nil, err
		}
		tree = t
		searcher = xtree.NewSearcher(t)
	} else {
		ls, err := knn.NewLinear(ds, cfg.Metric)
		if err != nil {
			return nil, err
		}
		searcher = ls
	}

	eval, err := od.NewEvaluator(ds, searcher, cfg.Metric, cfg.K, od.NormNone)
	if err != nil {
		return nil, err
	}
	return newMinerWith(ds, cfg, eval, searcher, tree, engine), nil
}

// newMinerWith assembles a Miner from already-constructed components —
// the shared tail of NewMiner and NewMinerWithIndex.
func newMinerWith(ds *vector.Dataset, cfg Config, eval *od.Evaluator, searcher knn.Searcher, tree *xtree.Tree, engine *shard.Engine) *Miner {
	return &Miner{
		cfg:    cfg,
		ds:     ds,
		eval:   eval,
		srch:   searcher,
		tree:   tree,
		shards: engine,
		priors: UniformPriors(ds.Dim()),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// workerEvaluator builds an independent OD evaluator for one worker
// goroutine. The X-tree itself is immutable after Build and safe for
// concurrent reads; Searchers and Evaluators carry per-instance work
// counters and are not, so each worker gets its own.
func (m *Miner) workerEvaluator() (*od.Evaluator, error) {
	var searcher knn.Searcher
	if m.shards != nil {
		s, err := m.shards.NewSearcher()
		if err != nil {
			return nil, err
		}
		searcher = s
	} else if m.tree != nil {
		searcher = xtree.NewSearcher(m.tree)
	} else {
		ls, err := knn.NewLinear(m.ds, m.cfg.Metric)
		if err != nil {
			return nil, err
		}
		searcher = ls
	}
	return od.NewEvaluator(m.ds, searcher, m.cfg.Metric, m.cfg.K, od.NormNone)
}

// Dataset returns the indexed dataset.
func (m *Miner) Dataset() *vector.Dataset { return m.ds }

// Threshold returns the effective T (resolved from TQuantile at
// Preprocess time when configured).
func (m *Miner) Threshold() float64 { return m.threshold }

// Priors returns the priors queries will use (learned when learning
// ran, uniform otherwise).
func (m *Miner) Priors() Priors { return m.priors }

// LearnStats returns the learning-phase summary (zero value before
// Preprocess).
func (m *Miner) LearnStats() LearnStats { return m.learnStats }

// SearcherStats returns cumulative k-NN work counters.
func (m *Miner) SearcherStats() knn.SearchStats { return m.srch.Stats() }

// ShardEngine returns the scatter-gather engine behind a sharded
// Miner, or nil when Config.Shards is 0. Callers use it for shard
// topology (sizes) and cumulative per-shard work counters; the engine
// is immutable and safe to read concurrently.
func (m *Miner) ShardEngine() *shard.Engine { return m.shards }

// NumShards returns the engine width the Miner serves from: the
// shard count of its scatter-gather engine, or 1 for an unsharded
// single-index Miner.
func (m *Miner) NumShards() int {
	if m.shards != nil {
		return m.shards.NumShards()
	}
	return 1
}

// Preprocess resolves the threshold and runs the sample-based
// learning process (§3.2): SampleSize points are drawn uniformly
// without replacement, each is searched with uniform priors, and the
// per-layer outlier fractions are averaged into the query priors.
// Preprocess is idempotent; repeated calls are no-ops.
func (m *Miner) Preprocess() error {
	if m.preprocessed {
		return nil
	}
	d := m.ds.Dim()

	// Resolve the threshold.
	if m.cfg.TQuantile > 0 {
		ods := m.eval.FullSpaceODs()
		t, err := vector.Quantile(ods, m.cfg.TQuantile)
		if err != nil {
			return fmt.Errorf("core: resolving TQuantile: %w", err)
		}
		if t <= 0 {
			return fmt.Errorf("core: TQuantile %v resolves to non-positive threshold %v (degenerate dataset)", m.cfg.TQuantile, t)
		}
		m.threshold = t
	} else {
		m.threshold = m.cfg.T
	}

	// Learning.
	if m.cfg.SampleSize > 0 {
		uniform := UniformPriors(d)
		perm := m.rng.Perm(m.ds.N())
		sampled := perm[:m.cfg.SampleSize]
		perSample := make([]Priors, 0, len(sampled))
		evalsBefore := m.eval.Evaluations()
		for _, idx := range sampled {
			q := m.eval.NewQueryForPoint(idx)
			res, err := Search(q, d, m.threshold, uniform, PolicyTSF, m.rng)
			if err != nil {
				return fmt.Errorf("core: learning on sample %d: %w", idx, err)
			}
			perSample = append(perSample, PriorsFromResult(res))
		}
		m.priors = SmoothPriors(averagePriors(perSample, d), len(perSample))
		m.learned = true
		m.learnStats = LearnStats{
			Samples:        len(sampled),
			ODEvaluations:  m.eval.Evaluations() - evalsBefore,
			SampledIndices: append([]int(nil), sampled...),
		}
	}
	m.preprocessed = true
	return nil
}

// QueryResult is what a caller receives for one query point.
//
// Results from the scratch-backed paths (QueryWith, QueryPointWith)
// alias their evaluator's reusable buffers; Clone detaches them.
type QueryResult struct {
	SearchResult
	// Threshold is the effective T the search used.
	Threshold float64
	// ODEvaluations is the number of distinct OD computations this
	// query performed.
	ODEvaluations int64
	// IsOutlierAnywhere reports whether the point is an outlier in at
	// least one subspace (the paper: "if the answer set is empty for
	// p, we say that p is not an outlier in any subspace").
	IsOutlierAnywhere bool
}

// Clone returns a deep copy whose slices are independently owned —
// the way to retain a QueryWith result beyond the next query on the
// same evaluator. Nil and empty slices keep their shape.
func (r *QueryResult) Clone() *QueryResult {
	if r == nil {
		return nil
	}
	out := *r
	out.Outlying = cloneMasks(r.Outlying)
	out.Minimal = cloneMasks(r.Minimal)
	if r.LayerOrder != nil {
		out.LayerOrder = make([]int, len(r.LayerOrder))
		copy(out.LayerOrder, r.LayerOrder)
	}
	if r.PerLayerOutlierFrac != nil {
		out.PerLayerOutlierFrac = make([]float64, len(r.PerLayerOutlierFrac))
		copy(out.PerLayerOutlierFrac, r.PerLayerOutlierFrac)
	}
	return &out
}

// cloneMasks copies a mask slice preserving nil-ness and emptiness.
func cloneMasks(s []subspace.Mask) []subspace.Mask {
	if s == nil {
		return nil
	}
	out := make([]subspace.Mask, len(s))
	copy(out, s)
	return out
}

// OutlyingSubspaces finds every subspace in which the given point is
// an outlier, and the minimal set after refinement. The point may be
// external to the dataset.
func (m *Miner) OutlyingSubspaces(point []float64) (*QueryResult, error) {
	return m.query(point, -1)
}

// OutlyingSubspacesOfPoint runs the query for dataset member idx
// (self-excluded from its own neighbourhoods).
func (m *Miner) OutlyingSubspacesOfPoint(idx int) (*QueryResult, error) {
	if idx < 0 || idx >= m.ds.N() {
		return nil, fmt.Errorf("core: point index %d out of range [0,%d)", idx, m.ds.N())
	}
	return m.query(m.ds.Point(idx), idx)
}

func (m *Miner) query(point []float64, exclude int) (*QueryResult, error) {
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	if len(point) != m.ds.Dim() {
		return nil, fmt.Errorf("core: query point has %d dims, dataset %d", len(point), m.ds.Dim())
	}
	q := m.eval.NewQuery(point, exclude)
	res, err := Search(q, m.ds.Dim(), m.threshold, m.priors, m.cfg.Policy, m.rng)
	if err != nil {
		return nil, err
	}
	_, misses := q.CacheStats()
	return &QueryResult{
		SearchResult:      *res,
		Threshold:         m.threshold,
		ODEvaluations:     misses,
		IsOutlierAnywhere: len(res.Outlying) > 0,
	}, nil
}
