package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/od"
	"repro/internal/vector"
)

// Every answer is checked against a reference core.Miner built in
// process from the same CSV with the same configuration: the outlier
// flag, the minimal subspaces and the threshold's exact bits must match.

// answer is the checked part of a /query response.
type answer struct {
	Threshold float64 `json:"threshold"`
	IsOutlier bool    `json:"is_outlier"`
	Minimal   [][]int `json:"minimal"`
}

func (a answer) equal(b answer) bool {
	if math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) || a.IsOutlier != b.IsOutlier || len(a.Minimal) != len(b.Minimal) {
		return false
	}
	for i := range a.Minimal {
		if len(a.Minimal[i]) != len(b.Minimal[i]) {
			return false
		}
		for j := range a.Minimal[i] {
			if a.Minimal[i][j] != b.Minimal[i][j] {
				return false
			}
		}
	}
	return true
}

func answerOf(r *core.QueryResult) answer {
	a := answer{Threshold: r.Threshold, IsOutlier: r.IsOutlierAnywhere, Minimal: make([][]int, len(r.Minimal))}
	for i, m := range r.Minimal {
		a.Minimal[i] = m.Dims()
	}
	return a
}

// minerConfig is the configuration hosserve runs with under the
// design's flags.
func minerConfig(d *Design, n int) (core.Config, error) {
	b, err := core.ParseBackend(d.Miner.Backend)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{K: d.Miner.K, TQuantile: d.Miner.TQ, SampleSize: d.Miner.Samples, Seed: 1, Backend: b}
	cfg.ClampSampleSize(n)
	return cfg, nil
}

// serverArgs are hosserve's flags for the design.
func serverArgs(d *Design, csvPath string) []string {
	return []string{"-data", csvPath, "-k", fmt.Sprint(d.Miner.K), "-tq", fmt.Sprint(d.Miner.TQ),
		"-samples", fmt.Sprint(d.Miner.Samples), "-backend", d.Miner.Backend}
}

func newReference(d *Design, ds *vector.Dataset) (*core.Miner, error) {
	cfg, err := minerConfig(d, ds.N())
	if err != nil {
		return nil, err
	}
	m, err := core.NewMiner(ds, cfg)
	if err != nil {
		return nil, err
	}
	return m, m.Preprocess()
}

// queryKey identifies a query target: a dataset row or an explain-pool
// point.
type queryKey struct{ index, pool int }

func keyOf(r *Request) queryKey { return queryKey{r.Index, r.Key} }

// referenceAnswers answers every distinct query in reqs on m, fanned
// out over workers goroutines each owning an evaluator.
func referenceAnswers(m *core.Miner, reqs []*Request, workers int) (map[queryKey]answer, error) {
	todo := map[queryKey]*Request{}
	for _, r := range reqs {
		todo[keyOf(r)] = r
	}
	list := make([]*Request, 0, len(todo))
	for _, r := range todo {
		list = append(list, r)
	}
	out := make(map[queryKey]answer, len(list))
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev, err := m.NewWorkerEvaluator()
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < len(list); i += workers {
				a, err := refAnswer(m, ev, list[i])
				if err != nil {
					errs[w] = err
					return
				}
				mu.Lock()
				out[keyOf(list[i])] = a
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refAnswer(m *core.Miner, ev *od.Evaluator, r *Request) (answer, error) {
	var res *core.QueryResult
	var err error
	if r.Index >= 0 {
		res, err = m.QueryPointWith(ev, r.Index)
	} else {
		res, err = m.QueryWith(ev, r.Point, -1)
	}
	if err != nil {
		return answer{}, err
	}
	return answerOf(res), nil
}

// checkQueries counts the query results that failed: not answered, or
// answered differently from the reference.
func checkQueries(results []Result, ref map[queryKey]answer) int {
	failed := 0
	for i := range results {
		r := &results[i]
		if !r.OK() {
			failed++
			continue
		}
		var got answer
		if json.Unmarshal(r.Body, &got) != nil || !got.equal(ref[keyOf(r.Req)]) {
			failed++
		}
	}
	return failed
}

// mutationAck is the acknowledged part of an /append or DELETE /rows
// response.
type mutationAck struct {
	Epoch   int64 `json:"epoch"`
	FirstID int64 `json:"first_id"`
	N       int   `json:"n"`
}

// ingestCheck verifies an ingest run. The server applies concurrent
// mutations in its own order, so the reference follows the order the
// acknowledgements report: by epoch, then by first stable ID within a
// coalesced append batch. A query may have been served by any epoch
// between the newest one acknowledged before it was sent and the
// newest one whose mutation was sent before it completed; it passes if
// its answer equals the reference at one of them. Finally the server's
// row count, next stable ID and a seeded sample of answers after the
// run must equal the reference's final state.
type ingestCheck struct {
	Failed int
	// Final is the reference after every acknowledged mutation.
	Final  *core.Miner
	NextID int64
}

func checkIngest(d *Design, ds0 *vector.Dataset, results []Result) (*ingestCheck, error) {
	out := &ingestCheck{}
	var muts []mutation
	for i := range results {
		r := &results[i]
		if !r.OK() {
			out.Failed++
			continue
		}
		if r.Req.Kind == kindQuery {
			continue
		}
		var ack mutationAck
		if err := json.Unmarshal(r.Body, &ack); err != nil {
			out.Failed++
			continue
		}
		muts = append(muts, mutation{r, ack})
	}
	sort.Slice(muts, func(i, j int) bool {
		a, b := muts[i].ack, muts[j].ack
		return a.Epoch < b.Epoch || a.Epoch == b.Epoch && a.FirstID < b.FirstID
	})
	// Group mutations by epoch; epochs must run 1..E without gaps.
	var groups [][]mutation
	for _, m := range muts {
		if n := len(groups); n > 0 && groups[n-1][0].ack.Epoch == m.ack.Epoch {
			groups[n-1] = append(groups[n-1], m)
			continue
		}
		if m.ack.Epoch != int64(len(groups)+1) {
			return nil, fmt.Errorf("ingest: acknowledged epochs are not contiguous at %d", m.ack.Epoch)
		}
		groups = append(groups, []mutation{m})
	}

	// Each answered query's candidate epochs [lo, hi].
	type pending struct {
		r      *Result
		lo, hi int64
		ok     bool
	}
	var qs []*pending
	for i := range results {
		r := &results[i]
		if r.Req.Kind != kindQuery || !r.OK() {
			continue
		}
		p := &pending{r: r}
		for _, m := range muts {
			if m.r.Done < r.Sent {
				p.lo = max(p.lo, m.ack.Epoch)
			}
			if m.r.Sent < r.Done {
				p.hi = max(p.hi, m.ack.Epoch)
			}
		}
		qs = append(qs, p)
	}

	m, err := newReference(d, ds0)
	if err != nil {
		return nil, err
	}
	nextID := int64(ds0.N())
	for e := 0; e <= len(groups); e++ {
		if e > 0 {
			nm, ok, err := applyGroup(m, &nextID, groups[e-1])
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("ingest: epoch %d acknowledgements disagree with the reference", e)
			}
			m = nm
		}
		ev, err := m.NewWorkerEvaluator()
		if err != nil {
			return nil, err
		}
		for _, q := range qs {
			if q.ok || int64(e) < q.lo || int64(e) > q.hi || q.r.Req.Index >= m.Dataset().N() {
				continue
			}
			a, err := refAnswer(m, ev, q.r.Req)
			if err != nil {
				return nil, err
			}
			var got answer
			q.ok = json.Unmarshal(q.r.Body, &got) == nil && got.equal(a)
		}
	}
	for _, q := range qs {
		if !q.ok {
			out.Failed++
		}
	}
	out.Final, out.NextID = m, nextID
	return out, nil
}

// mutation is one acknowledged /append or DELETE /rows.
type mutation struct {
	r   *Result
	ack mutationAck
}

// applyGroup applies one epoch's mutations to the reference: one
// coalesced append batch or one keep_last delete. ok is false when the
// acknowledgements disagree with the reference (first IDs out of
// sequence, a mixed group, or a different row count).
func applyGroup(m *core.Miner, nextID *int64, g []mutation) (_ *core.Miner, ok bool, _ error) {
	if g[0].r.Req.Kind == kindDelete {
		if len(g) != 1 {
			return nil, false, nil
		}
		n, keep := m.Dataset().N(), g[0].r.Req.KeepLast
		idx := make([]int, 0, keep)
		for i := n - keep; i < n; i++ {
			idx = append(idx, i)
		}
		nm, err := m.WithoutRows(idx)
		if err != nil {
			return nil, false, err
		}
		return nm, nm.Dataset().N() == g[0].ack.N, nil
	}
	batches := make([][][]float64, len(g))
	for i, x := range g {
		if x.r.Req.Kind != kindAppend || x.ack.FirstID != *nextID {
			return nil, false, nil
		}
		batches[i] = x.r.Req.Rows
		*nextID += int64(len(x.r.Req.Rows))
	}
	nm, err := m.WithAppendedBatch(batches...)
	if err != nil {
		return nil, false, err
	}
	return nm, nm.Dataset().N() == g[len(g)-1].ack.N, nil
}
