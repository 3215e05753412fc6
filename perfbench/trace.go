package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataio"
	"repro/internal/knn"
	"repro/internal/od"
	"repro/internal/server"
	"repro/internal/subspace"
	"repro/internal/vector"
	"repro/internal/wal"
	"repro/internal/xtree"
)

// The traced run gives the per-layer numbers. It first drives a real
// hosserve exactly as the end-to-end run does (warm-up, then the
// fixed-rate phase) for what only the live process shows: /stats
// counters, the client's service time and the generator's lag. It then
// replays the fixed phase's requests in process, timing each layer only
// through its public functions:
//
//	server   server.Server.Handler().ServeHTTP
//	core     core.Miner.QueryWith on an evaluator whose searcher is
//	knn      xtree.Decode(ExportIndex().Tree) wrapped in a timing knn.Searcher
//	vector   vector.SqDistL2Dims, isolated, on the recorded (point, subspace) pairs
//	setup    dataio.LoadFile, xtree.Build, Miner.Preprocess, Evaluator.FullSpaceODs
//	ingest   Miner.WithAppendedBatch / WithoutRows, Tree.AppendBatch, wal.Log.AppendBatch / Commit
//
// Spans are kept in memory and written to <workdir>/spans.jsonl at
// exit. Tracing inside the program itself is a later change.

// span is one timed call: times are offsets from the recorder's base.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
}

// recorder keeps spans of a single-goroutine replay; the open span is
// the parent of the next one begun.
type recorder struct {
	base  time.Time
	spans []span
	open  int
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity), open: -1}
}

func (r *recorder) begin(name string, req int) int {
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.base), Parent: r.open, Req: req})
	r.open = len(r.spans) - 1
	return r.open
}

func (r *recorder) end(id int) {
	r.spans[id].End = time.Since(r.base)
	r.open = r.spans[id].Parent
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := children[i]
		sort.Slice(cs, func(a, b int) bool { return spans[cs[a]].Start < spans[cs[b]].Start })
		var covered time.Duration
		var curS, curE time.Duration = -1, -1
		for _, c := range cs {
			st, en := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if en <= st {
				continue
			}
			if st > curE {
				covered += curE - curS
				curS, curE = st, en
			} else if en > curE {
				curE = en
			}
		}
		covered += curE - curS
		out[i] = s.End - s.Start - covered
	}
	return out
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSearcher times every kNN call as a span and counts the work
// the wrapped searcher reports. It samples (point, subspace) pairs for
// the isolated kernel measurement.
type tracedSearcher struct {
	inner knn.Searcher
	rec   *recorder
	req   int
	// counts
	calls, examined, nodes, dimTerms int64
	pairs                            []pair
	rng                              *rand.Rand
}

type pair struct {
	point []float64
	dims  []int
}

const maxPairs = 512

func (t *tracedSearcher) KNN(q []float64, s subspace.Mask, k, exclude int) []knn.Neighbor {
	before := t.inner.Stats()
	id := t.rec.begin("knn", t.req)
	out := t.inner.KNN(q, s, k, exclude)
	t.rec.end(id)
	after := t.inner.Stats()
	ex := after.PointsExamined - before.PointsExamined
	t.calls++
	t.examined += ex
	t.nodes += after.NodesVisited - before.NodesVisited
	t.dimTerms += ex * int64(s.Card())
	// Reservoir sample of the calls' (point, subspace) pairs.
	if len(t.pairs) < maxPairs {
		t.pairs = append(t.pairs, pair{append([]float64(nil), q...), s.Dims()})
	} else if j := t.rng.Int63n(t.calls); j < maxPairs {
		t.pairs[j] = pair{append([]float64(nil), q...), s.Dims()}
	}
	return out
}

func (t *tracedSearcher) Stats() knn.SearchStats { return t.inner.Stats() }
func (t *tracedSearcher) ResetStats()            { t.inner.ResetStats() }

// tracedEvaluators builds, for the miner's current index, one evaluator
// over a timing searcher and one over a plain searcher (for the
// tracing-overhead measurement).
func tracedEvaluators(m *core.Miner, ts *tracedSearcher) (*od.Evaluator, *od.Evaluator, error) {
	idx, err := m.ExportIndex()
	if err != nil {
		return nil, nil, err
	}
	ds := m.Dataset()
	tree, err := xtree.Decode(bytes.NewReader(idx.Tree), ds)
	if err != nil {
		return nil, nil, err
	}
	cfg := m.Config()
	ts.inner = xtree.NewSearcher(tree)
	traced, err := od.NewEvaluator(ds, ts, cfg.Metric, cfg.K, od.NormNone)
	if err != nil {
		return nil, nil, err
	}
	plain, err := od.NewEvaluator(ds, xtree.NewSearcher(tree), cfg.Metric, cfg.K, od.NormNone)
	return traced, plain, err
}

// layers accumulates the replay's per-layer totals.
type layers struct {
	setup map[string]float64 // set-up rungs, seconds
	// Handler replay: one entry per timed /query request.
	requests      int
	handlerUs     []float64
	handlerTotal  time.Duration
	allocs, bytes float64
	// Core replay over the requests the handler's cache missed.
	queryUs                []float64
	queryTotal, plainTotal time.Duration
	knnTotal, searchSelf   time.Duration
	odEvals, latticeEvals  int64
	layersVisited          int64
	// Mutation rungs.
	appendMs, withoutMs, fullSpaceMs, treeAppendMs []float64
	walAppendUs, walCommitMs                       []float64
	walRows, walSyncs                              int64
}

func tracedRun(c *config) (*report, error) {
	w := c.w
	in, err := makeInputs(w, c.seed)
	if err != nil {
		return nil, err
	}
	live, err := liveRun(c, in)
	if err != nil {
		return nil, err
	}
	all := append(append([]Result(nil), live.warm...), live.fixed...)
	rep := &report{Correct: true, Attempted: len(all)}
	if err := checkRun(c, in, all, nil, nil, rep); err != nil {
		return nil, err
	}

	rec := newRecorder(1 << 16)
	ts := &tracedSearcher{rec: rec, rng: rand.New(rand.NewSource(c.seed))}
	lay, err := replay(c, filepath.Join(c.workdir, "data.csv"), live, rec, ts)
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(c.workdir, "spans.jsonl")); err != nil {
		return nil, err
	}

	perReq := func(x float64) float64 { return x / float64(max(lay.requests, 1)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	for k, v := range lay.setup {
		rep.set(k, v, "s")
	}
	nsPerTerm := kernelNsPerTerm(in.DS, ts.pairs)
	rep.set("vector.dist_calls_per_query", perReq(float64(ts.examined)), "count")
	rep.set("vector.dim_terms_per_query", perReq(float64(ts.dimTerms)), "count")
	rep.set("vector.ns_per_dim_term", nsPerTerm, "ns")
	rep.set("vector.kernel_share", ratio(float64(ts.dimTerms)*nsPerTerm, float64(lay.knnTotal)), "ratio")
	rep.set("knn.calls_per_query", perReq(float64(ts.calls)), "count")
	rep.set("knn.busy_us_per_query", perReq(us(lay.knnTotal)), "us")
	rep.set("knn.share", ratio(float64(lay.knnTotal), float64(lay.handlerTotal)), "ratio")
	rep.set("knn.examined_per_call", ratio(float64(ts.examined), float64(ts.calls)), "count")
	rep.set("knn.useful_frac", ratio(float64(int64(c.design.Miner.K)*ts.calls), float64(ts.examined)), "ratio")
	rep.set("xtree.nodes_per_call", ratio(float64(ts.nodes), float64(ts.calls)), "count")
	rep.set("od.evals_per_query", perReq(float64(lay.odEvals)), "count")
	rep.set("lattice.evaluated_frac", perReq(float64(lay.latticeEvals))/float64(int64(1)<<w.D-1), "ratio")
	rep.set("lattice.layers_visited", perReq(float64(lay.layersVisited)), "count")
	rep.set("core.query_p50_us", nz(median(lay.queryUs)), "us")
	rep.set("core.query_p99_us", nz(quantile(lay.queryUs, 0.99)), "us")
	rep.set("core.search_self_us", ratio(us(lay.searchSelf), float64(len(lay.queryUs))), "us")
	rep.set("core.append_batch_ms", nz(median(lay.appendMs)), "ms")
	rep.set("core.without_rows_ms", nz(median(lay.withoutMs)), "ms")
	rep.set("od.full_space_ods_ms", nz(median(lay.fullSpaceMs)), "ms")
	rep.set("xtree.append_batch_ms", nz(median(lay.treeAppendMs)), "ms")
	rep.set("wal.append_us", nz(median(lay.walAppendUs)), "us")
	rep.set("wal.commit_ms", nz(median(lay.walCommitMs)), "ms")
	if _, ok := live.stats["wal.syncs_per_row"]; !ok {
		rep.set("wal.syncs_per_row", ratio(float64(lay.walSyncs), float64(lay.walRows)), "ratio")
	}
	handlerP50 := nz(median(lay.handlerUs))
	rep.set("server.handler_p50_us", handlerP50, "us")
	rep.set("server.handler_self_us", perReq(us(lay.handlerTotal-lay.plainTotal)), "us")
	rep.set("server.allocs_per_req", lay.allocs, "count")
	rep.set("server.bytes_per_req", lay.bytes, "B")
	rep.set("http.wire_us", live.serviceP50Us-handlerP50, "us")
	rep.set("loadgen.lag_p99_ms", live.lagP99Ms, "ms")
	rep.set("trace.overhead_frac", ratio(float64(lay.queryTotal-lay.plainTotal), float64(lay.plainTotal)), "ratio")
	for k, v := range live.stats {
		rep.set(k, v.Value, v.Unit)
	}
	fmt.Printf("replayed %d queries (%d reached QueryWith); %d spans in %s\n", lay.requests, len(lay.queryUs),
		len(rec.spans), filepath.Join(c.workdir, "spans.jsonl"))
	// The ladder, in layer order vector → knn → core → server → wire,
	// then the set-up and mutation rungs and the run's health.
	fmt.Println("ladder:")
	rep.printLines("vector.", "knn.", "xtree.", "od.", "lattice.", "core.", "dataio.", "wal.", "server.", "http.", "loadgen.", "trace.")
	return rep, nil
}

// nz maps the undefined statistic of an empty sample to 0.
func nz(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// kernelNsPerTerm times vector.SqDistL2Dims alone on the recorded
// (point, subspace) pairs against a fixed set of dataset rows and
// returns the time per dimension term.
func kernelNsPerTerm(ds *vector.Dataset, pairs []pair) float64 {
	if len(pairs) == 0 {
		pairs = []pair{{ds.Point(0), subspace.Full(ds.Dim()).Dims()}}
	}
	rows := min(256, ds.N())
	var sink float64
	var terms int64
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		for _, p := range pairs {
			for j := 0; j < rows; j++ {
				sink += vector.SqDistL2Dims(p.dims, p.point, ds.Point(j))
			}
			terms += int64(rows * len(p.dims))
		}
	}
	el := time.Since(start)
	kernelSink = sink
	return float64(el) / float64(terms)
}

// kernelSink keeps the kernel loop's result alive.
var kernelSink float64

// writer is a minimal http.ResponseWriter for the in-process handler
// replay; it keeps only what the replay reads.
type writer struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *writer) Header() http.Header { return w.h }
func (w *writer) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(b)
}
func (w *writer) WriteHeader(code int) { w.status = code }

// liveResult is what the traced run takes from the real server.
type liveResult struct {
	fixed        []Result
	warm         []Result
	serviceP50Us float64
	lagP99Ms     float64
	stats        map[string]metric
}

// liveRun drives a real hosserve through warm-up and the fixed phase,
// reading the /stats counters the ladder needs.
func liveRun(c *config, in *Inputs) (*liveResult, error) {
	w := c.w
	srv, _, err := startMeasured(c, in, 1)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()
	gen := &Generator{Addr: srv.Addr, Conns: c.conns, Timeout: 10 * time.Second, Base: time.Now()}
	stream := newStream(w, in.DS, c.seed)
	out := &liveResult{stats: map[string]metric{}}
	out.warm = gen.Run(stream.Phase(baseScale(w), secs(w.WarmupS)))
	st0, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	out.fixed = gen.Run(stream.Phase(baseScale(w), c.seconds))
	st1, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	srv.Stop()
	out.serviceP50Us = 1000 * median(serviceMs(out.fixed, kindQuery))
	out.lagP99Ms = quantile(lagMs(out.fixed), 0.99)

	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	d0, d1 := st0.Datasets[0], st1.Datasets[0]
	out.stats["server.cache_hit_frac"] = metric{ratio(st1.CacheHits-st0.CacheHits, st1.CacheHits-st0.CacheHits+st1.CacheMisses-st0.CacheMisses), "ratio"}
	out.stats["server.shed_frac"] = metric{ratio(d1.Overload.Shed-d0.Overload.Shed, d1.Overload.Received-d0.Overload.Received), "ratio"}
	out.stats["server.coalesce_ratio"] = metric{ratio(d1.Live.Appends-d0.Live.Appends, d1.Live.AppendBatches-d0.Live.AppendBatches), "ratio"}
	if w.Kind == "ingest" {
		out.stats["wal.syncs_per_row"] = metric{ratio(d1.Live.WALSyncs-d0.Live.WALSyncs, d1.Live.AppendedRows-d0.Live.AppendedRows), "ratio"}
	}
	return out, nil
}

// replay runs the set-up rungs, then replays the live run's requests
// in process, one at a time: each goes through an in-process server's
// handler (whose result cache decides, as in the live server, whether
// the request reaches the engine), and each cache miss then runs
// through QueryWith on an untraced and a traced evaluator, in
// alternating order so neither always finds the caches warmed by the
// other. Mutations are applied in schedule order to both. Only the
// fixed phase is timed; the warm-up brings caches and the dataset to
// the state the live run had.
func replay(c *config, csvPath string, live *liveResult, rec *recorder, ts *tracedSearcher) (*layers, error) {
	lay := &layers{setup: map[string]float64{}}
	m, err := setupRungs(c, csvPath, lay)
	if err != nil {
		return nil, err
	}
	seq := replaySequence(c.w, live)
	srv, err := server.New(m, server.Options{})
	if err != nil {
		return nil, err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	// Build every request up front so the timed calls allocate nothing
	// of the replay's own.
	reqs := make([]*http.Request, len(seq))
	ws := make([]*writer, len(seq))
	for i, s := range seq {
		if reqs[i], err = http.NewRequest(s.Method, s.Path, bytes.NewReader(s.Body)); err != nil {
			return nil, err
		}
		ws[i] = &writer{h: http.Header{}}
	}
	jr, err := newJournal(filepath.Join(c.workdir, "trace.wal"), m.Dataset())
	if err != nil {
		return nil, err
	}
	defer jr.log.Close()
	traced, plain, err := tracedEvaluators(m, ts)
	if err != nil {
		return nil, err
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	var mallocs, bytesAlloc uint64
	cur := m
	for i, s := range seq {
		if i%1024 == 1023 {
			runtime.GC()
		}
		timed := s.timed && s.Kind == kindQuery
		if timed {
			runtime.ReadMemStats(&before)
		}
		id := rec.begin("server.handler", i)
		h.ServeHTTP(ws[i], reqs[i])
		rec.end(id)
		if timed {
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytesAlloc += after.TotalAlloc - before.TotalAlloc
			d := rec.spans[id].End - rec.spans[id].Start
			lay.handlerTotal += d
			lay.handlerUs = append(lay.handlerUs, us(d))
			lay.requests++
		}
		if ws[i].status != http.StatusOK {
			return nil, fmt.Errorf("in-process %s %s: status %d: %s", s.Method, s.Path, ws[i].status, ws[i].body.String())
		}

		if s.Kind != kindQuery {
			if cur, err = mutate(cur, s, lay, jr); err != nil {
				return nil, err
			}
			if traced, plain, err = tracedEvaluators(cur, ts); err != nil {
				return nil, err
			}
			continue
		}
		if !timed || ws[i].h.Get("X-Cache") == "HIT" {
			continue
		}
		point, exclude := s.Point, -1
		if s.Index >= 0 {
			point, exclude = cur.Dataset().Point(s.Index), s.Index
		}
		for pass := 0; pass < 2; pass++ {
			if (pass+i)%2 == 0 {
				t := time.Now()
				if _, err := cur.QueryWith(plain, point, exclude); err != nil {
					return nil, err
				}
				lay.plainTotal += time.Since(t)
				continue
			}
			ts.req = i
			id := rec.begin("core.QueryWith", i)
			res, err := cur.QueryWith(traced, point, exclude)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			d := rec.spans[id].End - rec.spans[id].Start
			lay.queryTotal += d
			lay.queryUs = append(lay.queryUs, us(d))
			lay.odEvals += res.ODEvaluations
			lay.latticeEvals += res.Counters.Evaluations
			lay.layersVisited += int64(len(res.LayerOrder))
		}
	}
	lay.allocs = float64(mallocs) / float64(max(lay.requests, 1))
	lay.bytes = float64(bytesAlloc) / float64(max(lay.requests, 1))
	self := selfTimes(rec.spans)
	for i, s := range rec.spans {
		switch s.Name {
		case "knn":
			lay.knnTotal += s.End - s.Start
		case "core.QueryWith":
			lay.searchSelf += self[i]
		}
	}
	if c.w.Kind != "ingest" {
		if err := mutationProbe(c, m, lay, jr); err != nil {
			return nil, err
		}
	}
	lay.walRows, lay.walSyncs = jr.rows, jr.log.Syncs()
	return lay, nil
}

// step is one replayed request; timed marks the fixed phase.
type step struct {
	*Request
	timed bool
}

// replaySequence is every warm-up request, then the fixed phase's, its
// queries capped at the workload's replay count.
func replaySequence(w *Workload, live *liveResult) []step {
	var seq []step
	for _, r := range live.warm {
		seq = append(seq, step{Request: r.Req})
	}
	queries := 0
	for _, r := range live.fixed {
		if r.Req.Kind == kindQuery {
			if w.Replay > 0 && queries == w.Replay {
				break
			}
			queries++
		}
		seq = append(seq, step{Request: r.Req, timed: true})
	}
	return seq
}

// setupRungs times the set-up layers one by one and returns the
// preprocessed miner.
func setupRungs(c *config, csvPath string, lay *layers) (*core.Miner, error) {
	t := time.Now()
	ds, err := dataio.LoadFile(csvPath)
	if err != nil {
		return nil, err
	}
	lay.setup["dataio.load_s"] = time.Since(t).Seconds()
	cfg, err := minerConfig(c.design, ds.N())
	if err != nil {
		return nil, err
	}
	t = time.Now()
	if _, err := xtree.Build(ds, cfg.Metric, xtree.DefaultConfig()); err != nil {
		return nil, err
	}
	lay.setup["xtree.build_s"] = time.Since(t).Seconds()
	m, err := core.NewMiner(ds, cfg)
	if err != nil {
		return nil, err
	}
	t = time.Now()
	if err := m.Preprocess(); err != nil {
		return nil, err
	}
	lay.setup["core.preprocess_s"] = time.Since(t).Seconds()
	ev, err := m.NewWorkerEvaluator()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	ev.FullSpaceODs()
	lay.setup["od.full_space_ods_s"] = time.Since(t).Seconds()
	return m, nil
}

// journal is a write-ahead log the replay appends each mutation to,
// tracking stable row IDs the way the server does: rows hold the
// contiguous ID range [lo, next), appends extend it and a keep_last
// delete drops a prefix.
type journal struct {
	log      *wal.Log
	lo, next int64
	rows     int64
}

func newJournal(path string, ds *vector.Dataset) (*journal, error) {
	ids := make([]int64, ds.N())
	for i := range ids {
		ids[i] = int64(i)
	}
	l, err := wal.Create(path, wal.Header{Dim: ds.Dim(), NextID: int64(ds.N()), BaseIDs: ids}, wal.SyncPolicy{Mode: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	return &journal{log: l, next: int64(ds.N())}, nil
}

// record appends one mutation record as a batch frame and commits it,
// timing both.
func (j *journal) record(rec wal.Record, lay *layers) error {
	t := time.Now()
	if err := j.log.AppendBatch(time.Now().UnixNano(), []wal.Record{rec}); err != nil {
		return err
	}
	lay.walAppendUs = append(lay.walAppendUs, us(time.Since(t)))
	t = time.Now()
	if err := j.log.Commit(); err != nil {
		return err
	}
	lay.walCommitMs = append(lay.walCommitMs, ms(time.Since(t)))
	return nil
}

func (j *journal) appendRows(rows [][]float64, lay *layers) error {
	rec := wal.Record{Type: wal.RecordAppend, Rows: rows, FirstID: j.next}
	j.next += int64(len(rows))
	j.rows += int64(len(rows))
	return j.record(rec, lay)
}

func (j *journal) keepLast(keep int, lay *layers) error {
	rec := wal.Record{Type: wal.RecordDelete, FromID: j.lo, ToID: j.next - int64(keep)}
	j.lo = rec.ToID
	return j.record(rec, lay)
}

// mutate applies one replayed mutation. In the fixed phase it times
// every rung the server's mutation path runs through: the miner
// rebuild, the X-tree append, full-space ODs on the grown dataset and
// the WAL frame plus commit.
func mutate(cur *core.Miner, s step, lay *layers, jr *journal) (*core.Miner, error) {
	if s.Kind == kindDelete {
		n := cur.Dataset().N()
		keep := make([]int, 0, s.KeepLast)
		for i := n - s.KeepLast; i < n; i++ {
			keep = append(keep, i)
		}
		t := time.Now()
		nm, err := cur.WithoutRows(keep)
		if err != nil {
			return nil, err
		}
		if s.timed {
			lay.withoutMs = append(lay.withoutMs, ms(time.Since(t)))
			return nm, jr.keepLast(s.KeepLast, lay)
		}
		jr.lo = jr.next - int64(s.KeepLast)
		return nm, nil
	}
	if !s.timed {
		jr.next += int64(len(s.Rows))
		return cur.WithAppendedBatch(s.Rows)
	}
	return appendRungs(cur, s.Rows, lay, jr)
}

// appendRungs appends rows to the miner, timing each rung.
func appendRungs(cur *core.Miner, rows [][]float64, lay *layers, jr *journal) (*core.Miner, error) {
	idx, err := cur.ExportIndex()
	if err != nil {
		return nil, err
	}
	tree, err := xtree.Decode(bytes.NewReader(idx.Tree), cur.Dataset())
	if err != nil {
		return nil, err
	}
	t := time.Now()
	nm, err := cur.WithAppendedBatch(rows)
	if err != nil {
		return nil, err
	}
	lay.appendMs = append(lay.appendMs, ms(time.Since(t)))
	t = time.Now()
	if _, err := tree.AppendBatch(rows); err != nil {
		return nil, err
	}
	lay.treeAppendMs = append(lay.treeAppendMs, ms(time.Since(t)))
	ev, err := nm.NewWorkerEvaluator()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	ev.FullSpaceODs()
	lay.fullSpaceMs = append(lay.fullSpaceMs, ms(time.Since(t)))
	return nm, jr.appendRows(rows, lay)
}

// mutationProbe measures the mutation rungs on a query workload's
// dataset, which the workload itself never mutates: one append of
// probeRows seeded rows, a keep_last delete back to the original size,
// and several more WAL frames.
func mutationProbe(c *config, m *core.Miner, lay *layers, jr *journal) error {
	const probeRows = 16
	ds := m.Dataset()
	rng := rand.New(rand.NewSource(c.seed + 2))
	rows := make([][]float64, probeRows)
	for i := range rows {
		base := ds.Point(rng.Intn(ds.N()))
		rows[i] = make([]float64, len(base))
		for j := range base {
			rows[i][j] = base[j] + 0.5*rng.NormFloat64()
		}
	}
	nm, err := appendRungs(m, rows, lay, jr)
	if err != nil {
		return err
	}
	if _, err := mutate(nm, step{Request: deleteRequest(ds.N()), timed: true}, lay, jr); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if err := jr.appendRows(rows, lay); err != nil {
			return err
		}
	}
	return nil
}
