// Package server wraps a preprocessed core.Miner in a concurrent
// HTTP/JSON query service — the "preprocess once, query many" shape
// HOS-Miner's expensive setup (threshold resolution + §3.2 learning)
// calls for. Endpoints:
//
//	POST /query      outlying subspaces of a dataset row or ad-hoc vector
//	POST /batch      many queries at once through a shared per-batch OD cache
//	POST /scan       bounded whole-dataset sweep with severity ranking,
//	                 run as a scan job the request waits on
//	POST /jobs/scan  the same sweep as an async job (progress + polling)
//	GET  /jobs/{id}  job status/progress/result; DELETE cancels
//	GET  /healthz    liveness + dataset summary
//	GET  /stats      query counts, cache hit rate, latency percentiles
//
// Concurrency follows the contract documented on core.Miner: after
// Preprocess the Miner is read-only, and every request borrows a
// private OD evaluator from a core.EvaluatorPool. Repeated identical
// queries are answered from an in-memory LRU keyed by (point,
// exclude) — the Miner's configuration is fixed per server, so the
// key does not need to carry it. Every request is bounded by a
// body-size limit and a deadline, and admitted through the dataset's
// overload guard (internal/overload): a per-dataset circuit breaker
// plus an AIMD concurrency limiter with priority-aware shedding —
// /query outranks /batch outranks /scan and /jobs/scan.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/overload"
	"repro/internal/snapshot"
	"repro/internal/subspace"
	"repro/internal/wal"
)

// Options tunes a Server. The zero value selects the defaults noted
// on each field.
type Options struct {
	// QueryTimeout bounds one /query computation (default 10s).
	QueryTimeout time.Duration
	// ScanTimeout bounds one /scan request — queue wait plus run time
	// of its scan job (default 2min).
	ScanTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// CacheSize is the LRU result-cache capacity in entries
	// (default 1024; negative disables caching).
	CacheSize int
	// MaxScanResults caps the hits one /scan may return; requests
	// asking for more (or for "all" via 0) are clamped (default 1000).
	MaxScanResults int
	// ScanWorkers is the per-scan ScanAll fan-out (default
	// GOMAXPROCS, chosen by core).
	ScanWorkers int
	// MaxConcurrentQueries bounds simultaneously *computing* queries
	// (default 4×GOMAXPROCS). A request that cannot take a compute
	// slot within QueryTimeout is shed with 503; this is what keeps a
	// stream of deadline-busting queries from accumulating unbounded
	// work, since an abandoned computation runs to completion (to
	// seed the cache) rather than being cancelled.
	MaxConcurrentQueries int
	// LatencyWindow is the number of recent query latencies kept for
	// percentiles (default 1024).
	LatencyWindow int
	// MaxCachedMasks caps the per-entry outlying-mask set the result
	// cache pins (default 16384, ~64 KiB; negative = no cap). Larger
	// sets are still answered and cached, but their full outlying set
	// is dropped from the entry, so an include_all request for that
	// key recomputes instead of hitting.
	MaxCachedMasks int
	// MaxBatchItems caps the item count of one /batch request
	// (default 256).
	MaxBatchItems int
	// BatchTimeout bounds one /batch computation (default 1min).
	BatchTimeout time.Duration
	// MaxConcurrentBatches bounds simultaneously computing batches;
	// excess requests get 429 (default 2). Fully-cached batches never
	// take a slot.
	MaxConcurrentBatches int
	// MaxDatasets caps the registry size — the startup dataset plus
	// datasets loaded at runtime via POST /datasets/load (default 8).
	MaxDatasets int
	// MaxLoadPoints caps the N a POST /datasets/load may generate —
	// loading allocates N×D floats and preprocesses them inline, so an
	// unbounded request is a memory/CPU DoS (default 100000).
	MaxLoadPoints int
	// JobQueueDepth bounds jobs accepted but not yet running; a full
	// queue rejects POST /scan, POST /jobs/scan and compaction requests
	// with 429 and a Retry-After estimate (default 8).
	JobQueueDepth int
	// JobWorkers is the job worker-pool size — how many jobs, every
	// scan included, may run simultaneously (default 1: full-lattice
	// scans monopolise cores).
	JobWorkers int
	// JobResultTTL bounds how long a finished job's result stays
	// fetchable via GET /jobs/{id} (default 15min).
	JobResultTTL time.Duration
	// JobTimeout bounds one async scan job's run time (default 30min,
	// negative disables). Deliberately far above ScanTimeout: async
	// jobs exist so scans longer than any request deadline still
	// complete; this is only the runaway backstop.
	JobTimeout time.Duration
	// Overload tunes the per-dataset admission guards (circuit breaker
	// + AIMD concurrency limiter — see internal/overload). Zero fields
	// take the package defaults, except where the server derives better
	// ones: MaxLimit defaults to the sum of the three class caps,
	// TargetP99 to QueryTimeout/2, and ClassCaps to
	// [MaxConcurrentQueries, MaxConcurrentBatches, JobWorkers], so the
	// operator's static bounds survive as per-class ceilings under the
	// adaptive limit.
	Overload overload.Config
	// FaultHook, when set, is consulted at the start of every compute
	// (op ∈ "query"|"batch"|"scan", plus the dataset name). A non-nil
	// error fails the request with it; the returned duration is added
	// to the request's latency as observed by the overload guard
	// without sleeping. It exists for the fault-injection test harness
	// and must be nil in production.
	FaultHook func(op, dataset string) (time.Duration, error)
	// DataDir is the snapshot directory: POST /datasets/{name}/save
	// writes <name>.snap here, the "file" field of /datasets/load
	// resolves against it, and WarmStart registers every *.snap it
	// holds. Empty disables all three (the hosserve default without
	// -data-dir).
	DataDir string
	// WAL enables write-ahead delta logging of live mutations (append
	// and delete): a dataset's first mutation writes its pre-mutation
	// state to <name>.snap and opens <name>.wal beside it; every
	// mutation is journaled before its new view becomes visible, and
	// warm starts replay base + deltas. Requires DataDir.
	WAL bool
	// WALSync is the log's fsync policy (hosserve's -wal-sync flag,
	// parsed by wal.ParseSyncPolicy). The zero value — SyncBatch —
	// issues one fsync per drained mutation batch at the group-commit
	// point, so coalesced appends amortize durability; SyncAlways
	// fsyncs every record frame; SyncInterval coalesces fsyncs in time
	// and may lose acknowledged mutations inside the window on power
	// failure (the documented trade).
	WALSync wal.SyncPolicy
	// WALCompactBytes auto-submits a compaction job when a dataset's
	// log outgrows this many bytes, folding the deltas into a fresh
	// snapshot (default 4 MiB; negative disables auto-compaction —
	// POST /datasets/{name}/compact still works).
	WALCompactBytes int64
	// RetentionAge expires rows whose ingest stamp is older than this
	// from every dataset (0 disables). It is the process-wide default;
	// PUT /datasets/{name}/retention overrides per dataset. Expiry is
	// exact: it runs through the same WAL-journaled delete path as
	// DELETE /datasets/{name}/rows.
	RetentionAge time.Duration
	// RetentionRows caps every dataset's row count: a sweep that finds
	// more deletes the oldest rows beyond the cap (0 disables; same
	// per-dataset override as RetentionAge).
	RetentionRows int
	// RetentionInterval is the background sweep cadence (default 30s).
	// Sweeps are async jobs (kind "retention"), visible under GET /jobs
	// and counted per dataset in /stats.
	RetentionInterval time.Duration
	// Provenance describes where the default dataset came from, so
	// saving it produces a snapshot that records its origin.
	Provenance snapshot.Provenance
	// NormStats is the raw per-column [Min,Max] the default dataset
	// was min-max normalized with (nil when it is served in raw
	// units). Ad-hoc /query vectors and appended rows arrive in raw
	// units and are rescaled by it (snapshot.NormalizePoint) — without
	// that, client points would be compared against scaled data and
	// report as outliers everywhere — and it rides into snapshots of
	// the default dataset so the rescaling survives a restart.
	NormStats []snapshot.ColumnRange
	// Logf, when set, receives debug-level serving events (job
	// lifecycle, auto-compaction); nil discards them.
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.QueryTimeout <= 0 {
		o.QueryTimeout = 10 * time.Second
	}
	if o.ScanTimeout <= 0 {
		o.ScanTimeout = 2 * time.Minute
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CacheSize == 0 {
		o.CacheSize = 1024
	}
	if o.MaxScanResults <= 0 {
		o.MaxScanResults = 1000
	}
	if o.MaxConcurrentQueries <= 0 {
		o.MaxConcurrentQueries = 4 * runtime.GOMAXPROCS(0)
	}
	if o.LatencyWindow <= 0 {
		o.LatencyWindow = 1024
	}
	if o.MaxCachedMasks == 0 {
		o.MaxCachedMasks = 16384
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	if o.BatchTimeout <= 0 {
		o.BatchTimeout = time.Minute
	}
	if o.MaxConcurrentBatches <= 0 {
		o.MaxConcurrentBatches = 2
	}
	if o.MaxDatasets <= 0 {
		o.MaxDatasets = 8
	}
	if o.MaxLoadPoints <= 0 {
		o.MaxLoadPoints = 100_000
	}
	if o.JobQueueDepth <= 0 {
		o.JobQueueDepth = 8
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.JobResultTTL <= 0 {
		o.JobResultTTL = 15 * time.Minute
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 30 * time.Minute
	}
	if o.WALCompactBytes == 0 {
		o.WALCompactBytes = 4 << 20
	}
	if o.RetentionInterval <= 0 {
		o.RetentionInterval = 30 * time.Second
	}
}

// Server is the HTTP face of a registry of preprocessed Miners: the
// default dataset it was constructed over plus any loaded at runtime
// through POST /datasets/load. Admission control is per dataset: each
// registry entry carries an overload.Guard (circuit breaker + AIMD
// concurrency limiter) so one slow dataset sheds its own traffic
// instead of starving its siblings; result caches and evaluator pools
// are likewise per dataset.
type Server struct {
	reg     *registry
	def     *dataset
	opts    Options
	stats   *serverStats
	jobs    *jobs.Manager
	loadSem chan struct{}
	mux     *http.ServeMux
	started time.Time
	// retStop/retDone bracket the background retention sweeper's
	// lifetime; retOnce makes shutdown idempotent.
	retStop chan struct{}
	retDone chan struct{}
	retOnce sync.Once
}

// New builds a Server over the Miner, running Preprocess if the
// caller has not already (directly or via ImportState). Preprocessing
// at construction — before any request goroutine exists — is what
// makes the shared Miner state read-only from then on. The Miner
// becomes the registry's default dataset.
func New(m *core.Miner, opts Options) (*Server, error) {
	if m == nil {
		return nil, fmt.Errorf("server: nil miner")
	}
	opts.setDefaults()
	if err := m.Preprocess(); err != nil {
		return nil, fmt.Errorf("server: preprocessing: %w", err)
	}
	s := &Server{
		opts:    opts,
		stats:   newServerStats(opts.LatencyWindow),
		loadSem: make(chan struct{}, 1),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	s.jobs = jobs.NewManager(jobs.Options{
		QueueDepth: opts.JobQueueDepth,
		Workers:    opts.JobWorkers,
		ResultTTL:  opts.JobResultTTL,
	})
	s.def = s.newDatasetEntry(DefaultDatasetName, m, opts.NormStats, opts.Provenance)
	s.reg = newRegistry(s.def, opts.MaxDatasets)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /batch", s.handleBatch)
	s.mux.HandleFunc("POST /scan", s.handleScan)
	s.mux.HandleFunc("POST /jobs/scan", s.handleSubmitScanJob)
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /datasets/load", s.handleLoadDataset)
	s.mux.HandleFunc("POST /datasets/evict", s.handleEvictDataset)
	s.mux.HandleFunc("POST /datasets/{name}/save", s.handleSaveDataset)
	s.mux.HandleFunc("POST /datasets/{name}/append", s.handleAppendRows)
	s.mux.HandleFunc("DELETE /datasets/{name}/rows", s.handleDeleteRows)
	s.mux.HandleFunc("POST /datasets/{name}/compact", s.handleCompact)
	s.mux.HandleFunc("GET /datasets/{name}/retention", s.handleGetRetention)
	s.mux.HandleFunc("PUT /datasets/{name}/retention", s.handleSetRetention)
	s.retStop = make(chan struct{})
	s.retDone = make(chan struct{})
	go s.retentionLoop()
	return s, nil
}

// Close stops the background retention sweeper, then drains the async
// job subsystem: queued jobs still run, and Close blocks until the
// pool is idle or ctx expires, at which point the stragglers are
// cancelled. Call it after the HTTP listener has shut down so no new
// jobs can arrive mid-drain.
func (s *Server) Close(ctx context.Context) error {
	s.retOnce.Do(func() {
		close(s.retStop)
		<-s.retDone
	})
	return s.jobs.Close(ctx)
}

// debugf emits a debug-level serving event through Options.Logf.
func (s *Server) debugf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler returns the root handler (mux + recovery), ready for
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// Stats returns a point-in-time counter snapshot (also served at
// GET /stats). The scalar counters come from one consistent locked
// snapshot; the per-dataset section is appended after it.
func (s *Server) Stats() StatsSnapshot {
	entries := s.reg.list()
	cacheEntries := 0
	for _, d := range entries {
		cacheEntries += d.view().cache.len()
	}
	snap := s.stats.snapshot(cacheEntries, time.Since(s.started))
	snap.Jobs = toJobStats(s.jobs.Counters())
	snap.Datasets = make([]DatasetStats, len(entries))
	for i, d := range entries {
		snap.Datasets[i] = d.stats()
	}
	return snap
}

// ---- request/response bodies ----

type queryRequest struct {
	// Dataset routes the query to a registry entry ("" = the default
	// dataset the process started with).
	Dataset string `json:"dataset,omitempty"`
	// Exactly one of Index (dataset row) or Point (ad-hoc vector) must
	// be set.
	Index *int      `json:"index,omitempty"`
	Point []float64 `json:"point,omitempty"`
	// IncludeAll adds the full outlying set to the response (it can be
	// exponentially larger than the minimal set, so it is opt-in).
	IncludeAll bool `json:"include_all,omitempty"`
}

type queryResponse struct {
	Index         *int      `json:"index,omitempty"`
	Point         []float64 `json:"point,omitempty"`
	Threshold     float64   `json:"threshold"`
	IsOutlier     bool      `json:"is_outlier"`
	Minimal       [][]int   `json:"minimal"`
	OutlyingCount int       `json:"outlying_count"`
	Outlying      [][]int   `json:"outlying,omitempty"`
	ODEvaluations int64     `json:"od_evaluations"`
	Cached        bool      `json:"cached"`
	ElapsedMs     float64   `json:"elapsed_ms"`

	// outlyingMasks is the full outlying set in its compact 4-byte-
	// per-subspace form; it is what the cache pins. The [][]int
	// Outlying field is materialised per response, and only for
	// include_all — the set can be exponential in d.
	outlyingMasks []subspace.Mask
}

type scanRequest struct {
	Dataset        string `json:"dataset,omitempty"`
	MaxResults     int    `json:"max_results,omitempty"`
	SortBySeverity bool   `json:"sort_by_severity,omitempty"`
	Workers        int    `json:"workers,omitempty"`
}

type scanResponse struct {
	Hits       []scanHit `json:"hits"`
	HitCount   int       `json:"hit_count"`
	MaxResults int       `json:"max_results"`
	ElapsedMs  float64   `json:"elapsed_ms"`
}

type scanHit struct {
	Index         int     `json:"index"`
	Minimal       [][]int `json:"minimal"`
	OutlyingCount int     `json:"outlying_count"`
	FullSpaceOD   float64 `json:"full_space_od"`
}

type healthResponse struct {
	Status        string  `json:"status"`
	DatasetN      int     `json:"dataset_n"`
	DatasetD      int     `json:"dataset_d"`
	K             int     `json:"k"`
	Threshold     float64 `json:"threshold"`
	Policy        string  `json:"policy"`
	Backend       string  `json:"backend"`
	Shards        int     `json:"shards"`
	Datasets      int     `json:"datasets"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.startRequest()
	defer s.stats.endRequest()
	start := time.Now()

	var req queryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	d, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	// Pin the current epoch: every read below — target resolution,
	// cache, evaluator pool, the miner itself — goes through this one
	// view, so a concurrent append/delete swapping in a new epoch can
	// never show this request a mix of old and new state.
	v := d.view()
	point, exclude, emsg := v.resolveQueryTarget(req.Index, req.Point)
	if emsg != "" {
		s.error(w, http.StatusBadRequest, emsg)
		return
	}

	key := cacheKey(point, exclude)
	if resp, ok := v.cache.get(key); ok {
		// An entry whose full outlying set was too large to pin (see
		// MaxCachedMasks) cannot serve include_all; fall through and
		// recompute for that combination only.
		if !req.IncludeAll || resp.outlyingMasks != nil || resp.OutlyingCount == 0 {
			// The per-dataset counter mirrors the global one: answers
			// served, not requests received (scan/batch count the same
			// way), so DatasetStats.Queries sums to the scalar counters.
			d.queries.Add(1)
			s.stats.recordQuery(true, time.Since(start))
			out := *resp // copy: cached value stays immutable
			out.Cached = true
			out.ElapsedMs = msSince(start)
			if req.IncludeAll {
				out.Outlying = masksToDims(resp.outlyingMasks)
			}
			w.Header().Set("X-Cache", "HIT")
			s.writeJSON(w, http.StatusOK, &out)
			return
		}
	}

	// Admit through the dataset's overload guard before spawning: when
	// the dataset is saturated (or its breaker is open), requests shed
	// here instead of queueing unbounded abandoned work. The admission
	// wait and the compute wait share one deadline, so a request never
	// occupies the handler longer than QueryTimeout in total.
	queryCtx, cancelQuery := context.WithTimeout(r.Context(), s.opts.QueryTimeout)
	defer cancelQuery()
	permit, rej := d.guard.Admit(queryCtx, overload.Interactive, true)
	if rej != nil {
		switch {
		case rej.Reason == overload.ReasonBreakerOpen:
			s.shedBreakerOpen(w, d.name, rej)
		case r.Context().Err() != nil:
			s.clientGone(w, "query")
		default:
			w.Header().Set("Retry-After", strconv.Itoa(overload.RetryAfterSeconds(rej.RetryAfter)))
			s.error(w, http.StatusServiceUnavailable,
				fmt.Sprintf("no compute slot within the %s deadline", s.opts.QueryTimeout))
		}
		return
	}

	type outcome struct {
		resp *queryResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		// The permit is held until the computation finishes — even past
		// the handler's deadline — so concurrent evaluators stay
		// bounded, and its release tells the guard how the dataset
		// actually behaved: a success that blew the deadline counts as
		// a timeout, because that is what the client experienced.
		computeStart := time.Now()
		var injected time.Duration
		finish := func(err error) {
			lat := time.Since(computeStart) + injected
			out := outcomeFor(err)
			if out == overload.Success && lat > s.opts.QueryTimeout {
				out = overload.Timeout
			}
			permit.Release(out, lat)
		}
		if s.opts.FaultHook != nil {
			delay, err := s.opts.FaultHook("query", d.name)
			injected = delay
			if err != nil {
				finish(err)
				done <- outcome{nil, err}
				return
			}
		}
		eval, err := v.pool.Get()
		if err != nil {
			finish(err)
			done <- outcome{nil, err}
			return
		}
		res, err := v.miner.QueryWith(eval, point, exclude)
		if err != nil {
			v.pool.Put(eval)
			finish(err)
			done <- outcome{nil, err}
			return
		}
		// The result aliases the evaluator's scratch: take an owned copy
		// before the evaluator goes back to the pool (where the next
		// borrower's query would overwrite it), since the response below
		// is also retained by the LRU cache.
		res = res.Clone()
		v.pool.Put(eval)
		resp := &queryResponse{
			Index:         req.Index,
			Threshold:     res.Threshold,
			IsOutlier:     res.IsOutlierAnywhere,
			Minimal:       masksToDims(res.Minimal),
			OutlyingCount: len(res.Outlying),
			ODEvaluations: res.ODEvaluations,
			outlyingMasks: res.Outlying,
		}
		if req.Index == nil {
			resp.Point = append([]float64(nil), point...)
		}
		// Cache here, not in the handler: a query that outlives the
		// deadline still finishes and seeds the cache, so the client's
		// retry is a hit instead of re-paying the full cost (and timing
		// out again, forever). Oversized outlying sets are dropped from
		// the cached copy only — the in-flight response keeps them.
		toCache := resp
		if s.opts.MaxCachedMasks > 0 && len(resp.outlyingMasks) > s.opts.MaxCachedMasks {
			stripped := *resp
			stripped.outlyingMasks = nil
			toCache = &stripped
		}
		v.cache.put(key, toCache)
		s.stats.addODEvals(res.ODEvaluations)
		finish(nil)
		done <- outcome{resp, nil}
	}()

	select {
	case <-queryCtx.Done():
		if r.Context().Err() != nil {
			s.clientGone(w, "query")
			return
		}
		s.error(w, http.StatusServiceUnavailable,
			fmt.Sprintf("query exceeded the %s deadline", s.opts.QueryTimeout))
		return
	case o := <-done:
		if o.err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(o.err, core.ErrNotPreprocessed):
				status = http.StatusServiceUnavailable
			case errors.Is(o.err, context.DeadlineExceeded):
				// An injected or engine-level timeout is a capacity
				// signal, same as the handler's own deadline firing.
				status = http.StatusServiceUnavailable
			}
			s.error(w, status, o.err.Error())
			return
		}
		// Misses are counted when a computed answer is served, not at
		// lookup time, so shed/timed-out requests (counted in errors)
		// keep the invariant hits + misses == queries.
		d.queries.Add(1)
		s.stats.recordQuery(false, time.Since(start))
		out := *o.resp
		out.ElapsedMs = msSince(start)
		if req.IncludeAll {
			out.Outlying = masksToDims(o.resp.outlyingMasks)
		}
		w.Header().Set("X-Cache", "MISS")
		s.writeJSON(w, http.StatusOK, &out)
	}
}

// scanPlan is a validated, clamped scan request — the shared front
// half of POST /scan and POST /jobs/scan, so both apply identical
// bounds.
type scanPlan struct {
	d *dataset
	// v is the epoch pinned at planning time: the whole sweep runs
	// over it even if the dataset mutates mid-scan.
	v              *view
	maxResults     int
	workers        int
	sortBySeverity bool
	// hook is the fault-injection point (Options.FaultHook bound to
	// this dataset); nil outside the test harness.
	hook func() (time.Duration, error)
}

// planScan decodes and validates a scanRequest, writing the 4xx
// itself on failure.
func (s *Server) planScan(w http.ResponseWriter, r *http.Request) (*scanPlan, bool) {
	var req scanRequest
	if !s.decodeBody(w, r, &req) {
		return nil, false
	}
	d, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return nil, false
	}
	if req.MaxResults < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("max_results = %d", req.MaxResults))
		return nil, false
	}
	if req.Workers < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("workers = %d", req.Workers))
		return nil, false
	}
	maxResults := req.MaxResults
	if maxResults == 0 || maxResults > s.opts.MaxScanResults {
		maxResults = s.opts.MaxScanResults
	}
	// Clamp the client-supplied fan-out: each worker builds its own
	// evaluator, so an unbounded count is a memory/scheduler DoS.
	maxWorkers := s.opts.ScanWorkers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	workers := req.Workers
	if workers == 0 || workers > maxWorkers {
		workers = maxWorkers
	}
	plan := &scanPlan{d: d, v: d.view(), maxResults: maxResults, workers: workers, sortBySeverity: req.SortBySeverity}
	if fh := s.opts.FaultHook; fh != nil {
		name := d.name
		plan.hook = func() (time.Duration, error) { return fh("scan", name) }
	}
	return plan, true
}

// run executes the plan and renders the response; its elapsed_ms is
// the scan's run time.
func (p *scanPlan) run(ctx context.Context, onProgress func(done, total int)) (*scanResponse, error) {
	start := time.Now()
	if p.hook != nil {
		if _, err := p.hook(); err != nil {
			return nil, err
		}
	}
	hits, err := p.v.miner.ScanAll(ctx, core.ScanOptions{
		MaxResults:     p.maxResults,
		SortBySeverity: p.sortBySeverity,
		Workers:        p.workers,
		OnProgress:     onProgress,
	})
	if err != nil {
		return nil, err
	}
	resp := &scanResponse{
		Hits:       make([]scanHit, len(hits)),
		HitCount:   len(hits),
		MaxResults: p.maxResults,
		ElapsedMs:  msSince(start),
	}
	for i, h := range hits {
		resp.Hits[i] = scanHit{
			Index:         h.Index,
			Minimal:       masksToDims(h.Minimal),
			OutlyingCount: h.OutlyingCount,
			FullSpaceOD:   h.FullSpaceOD,
		}
	}
	return resp, nil
}

// handleScan is POST /scan: the scan job of POST /jobs/scan with the
// client waiting on it. ScanTimeout covers queue wait plus run time;
// when it lapses, or the client leaves, the job is cancelled.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	plan, ok := s.planScan(w, r)
	if !ok {
		return
	}
	job, ok := s.submitScan(w, plan)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.ScanTimeout)
	defer cancel()
	snap, err := s.jobs.Wait(ctx, job.ID)
	if err != nil {
		s.jobs.Cancel(job.ID)
		s.scanInterrupted(w, err)
		return
	}
	switch {
	case snap.State == jobs.StateDone:
		out := *snap.Result.(*scanResponse) // copy: the job keeps its result
		out.ElapsedMs = msSince(start)
		s.writeJSON(w, http.StatusOK, &out)
	case snap.State == jobs.StateCancelled || errors.Is(snap.Err, context.DeadlineExceeded):
		// Cancelled by DELETE /jobs/{id} or a shutdown drain, or timed
		// out inside the engine: a capacity signal, like the deadline.
		s.error(w, http.StatusServiceUnavailable, fmt.Sprintf("scan job %s %s: %v", job.ID, snap.State, snap.Err))
	default:
		s.error(w, http.StatusInternalServerError, snap.Err.Error())
	}
}

// scanInterrupted writes the status for a scan that ended before
// producing an answer, distinguishing the server's deadline (503 — a
// capacity signal, counted as an error) from the client closing the
// request (408-family, the client's own doing, counted separately so
// it cannot corrupt error-rate stats).
func (s *Server) scanInterrupted(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.error(w, http.StatusServiceUnavailable,
			fmt.Sprintf("scan exceeded the %s deadline (submit via POST /jobs/scan to run it asynchronously)", s.opts.ScanTimeout))
		return
	}
	s.clientGone(w, "scan")
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	m := s.def.view().miner
	cfg := m.Config()
	s.writeJSON(w, http.StatusOK, &healthResponse{
		Status:        "ok",
		DatasetN:      m.Dataset().N(),
		DatasetD:      m.Dataset().Dim(),
		K:             cfg.K,
		Threshold:     m.Threshold(),
		Policy:        cfg.Policy.String(),
		Backend:       cfg.Backend.String(),
		Shards:        m.NumShards(),
		Datasets:      s.reg.len(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.Stats()
	s.writeJSON(w, http.StatusOK, &snap)
}

// ---- middleware & helpers ----

// recoverPanics converts a handler panic into a counted 500 instead
// of killing the connection handler. The panic value and stack go to
// the server log; the client sees only a generic message.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				s.error(w, http.StatusInternalServerError, "internal error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decodeBody parses the JSON request body under the configured size
// limit, writing the 4xx itself when parsing fails.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		// An empty body means "all defaults" — natural for /scan,
		// where every field is optional.
		if errors.Is(err, io.EOF) {
			return true
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.error(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("body exceeds %d bytes", s.opts.MaxBodyBytes))
			return false
		}
		s.error(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) error(w http.ResponseWriter, status int, msg string) {
	s.stats.recordError()
	s.writeJSON(w, status, &errorResponse{Error: msg})
}

// conflict answers 409 for registry-capacity and duplicate-name
// refusals. These land in the registry_conflicts counter, not the
// error counter: they are admission control working as designed, and
// counting them as server errors (as the generic error path used to)
// made a full registry look like a malfunction on dashboards.
func (s *Server) conflict(w http.ResponseWriter, msg string) {
	s.stats.recordRegistryConflict()
	s.writeJSON(w, http.StatusConflict, &errorResponse{Error: msg})
}

// notFound answers 404 for requests naming a dataset that is not
// registered — counted in dataset_not_found, apart from server errors,
// for the same reason as conflict.
func (s *Server) notFound(w http.ResponseWriter, msg string) {
	s.stats.recordDatasetNotFound()
	s.writeJSON(w, http.StatusNotFound, &errorResponse{Error: msg})
}

// registryError maps a typed registry failure onto its HTTP status
// and counter — the single place the taxonomy is spelled out.
func (s *Server) registryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDatasetExists), errors.Is(err, ErrRegistryFull):
		s.conflict(w, err.Error())
	case errors.Is(err, ErrDatasetNotFound):
		s.notFound(w, err.Error())
	case errors.Is(err, ErrNotEvictable):
		s.error(w, http.StatusBadRequest, err.Error())
	default:
		s.error(w, http.StatusInternalServerError, err.Error())
	}
}

// outcomeFor classifies a finished computation's error for the
// overload guard: deadline → Timeout (the breaker's primary trip
// signal), cancellation → Cancelled (the client's doing, neutral),
// anything else → Errored.
func outcomeFor(err error) overload.Outcome {
	switch {
	case err == nil:
		return overload.Success
	case errors.Is(err, context.DeadlineExceeded):
		return overload.Timeout
	case errors.Is(err, context.Canceled):
		return overload.Cancelled
	default:
		return overload.Errored
	}
}

// shedBreakerOpen answers a request rejected by an open (or probing)
// circuit breaker: 503 with a Retry-After derived from the remaining
// cool-down, floored at 1s by the shared header helper.
func (s *Server) shedBreakerOpen(w http.ResponseWriter, dataset string, rej *overload.Rejection) {
	retry := overload.RetryAfterSeconds(rej.RetryAfter)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	s.error(w, http.StatusServiceUnavailable,
		fmt.Sprintf("dataset %q is shedding load (circuit breaker open), retry in ~%ds", dataset, retry))
}

// clientGone reports a request whose own client closed the connection
// mid-computation. The status is 408 (the 4xx "the client gave up"
// family — nobody reads the body, but middleware and access logs do
// read the code) and the event lands in the client_cancelled counter,
// NOT the error counter: the old behaviour of answering 503 here made
// every impatient client look like server overload.
func (s *Server) clientGone(w http.ResponseWriter, what string) {
	s.stats.recordClientCancelled()
	s.writeJSON(w, http.StatusRequestTimeout, &errorResponse{Error: what + ": client closed request"})
}

func masksToDims(masks []subspace.Mask) [][]int {
	out := make([][]int, len(masks))
	for i, m := range masks {
		out[i] = m.Dims()
	}
	return out
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
