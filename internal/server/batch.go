package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/subspace"
)

// POST /batch evaluates many outlying-subspace queries as one request
// through core.QueryBatch: one evaluator pool, one shared bounded
// per-batch OD cache, bounded worker fan-out. Items that are already
// in the server's result LRU are answered from it without touching
// the engine; computed items seed the LRU so follow-up /query traffic
// hits. Item-level failures (bad index, wrong dimensionality) are
// reported per item and do not fail the batch.

type batchRequest struct {
	// Dataset routes the whole batch to a registry entry ("" = the
	// default dataset).
	Dataset string             `json:"dataset,omitempty"`
	Items   []batchRequestItem `json:"items"`
	// Workers overrides the per-batch fan-out (clamped to
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

type batchRequestItem struct {
	// Exactly one of Index (dataset row) or Point (ad-hoc vector) must
	// be set, as in /query.
	Index *int      `json:"index,omitempty"`
	Point []float64 `json:"point,omitempty"`
}

type batchItemResponse struct {
	Index         *int      `json:"index,omitempty"`
	Point         []float64 `json:"point,omitempty"`
	Error         string    `json:"error,omitempty"`
	IsOutlier     bool      `json:"is_outlier"`
	Minimal       [][]int   `json:"minimal"`
	OutlyingCount int       `json:"outlying_count"`
	ODEvaluations int64     `json:"od_evaluations"`
	Cached        bool      `json:"cached"`
}

type batchResponse struct {
	Results   []batchItemResponse `json:"results"`
	Succeeded int                 `json:"succeeded"`
	Failed    int                 `json:"failed"`
	Threshold float64             `json:"threshold"`
	// ResultCacheHits counts items answered from the server's LRU;
	// the OD* fields are the shared per-batch OD cache accounting.
	ResultCacheHits int64   `json:"result_cache_hits"`
	ODCacheHits     int64   `json:"od_cache_hits"`
	ODCacheMisses   int64   `json:"od_cache_misses"`
	ElapsedMs       float64 `json:"elapsed_ms"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	d, ok := s.resolveDataset(w, req.Dataset)
	if !ok {
		return
	}
	// One epoch for the whole batch: items, cache lookups and the
	// engine all see the same view even across a concurrent append.
	v := d.view()
	if len(req.Items) == 0 {
		s.error(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.opts.MaxBatchItems {
		s.error(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit is %d", len(req.Items), s.opts.MaxBatchItems))
		return
	}
	if req.Workers < 0 {
		s.error(w, http.StatusBadRequest, fmt.Sprintf("workers = %d", req.Workers))
		return
	}
	workers := req.Workers
	if maxWorkers := runtime.GOMAXPROCS(0); workers == 0 || workers > maxWorkers {
		workers = maxWorkers
	}

	// Validate items and split them into LRU hits and engine work
	// before taking the batch slot: a fully-cached batch costs nothing.
	resp := &batchResponse{
		Results:   make([]batchItemResponse, len(req.Items)),
		Threshold: v.miner.Threshold(),
	}
	var queries []core.BatchQuery // engine work, in compacted order
	var queryPos []int            // queries[j] answers Results[queryPos[j]]
	keys := make([]string, len(req.Items))
	for i, item := range req.Items {
		out := &resp.Results[i]
		point, exclude, emsg := v.resolveQueryTarget(item.Index, item.Point)
		if emsg != "" {
			out.Error = emsg
			continue
		}
		if exclude >= 0 {
			out.Index = item.Index
		} else {
			out.Point = append([]float64(nil), point...)
		}
		keys[i] = cacheKey(point, exclude)
		if cached, ok := v.cache.get(keys[i]); ok {
			out.IsOutlier = cached.IsOutlier
			out.Minimal = cached.Minimal
			out.OutlyingCount = cached.OutlyingCount
			out.ODEvaluations = cached.ODEvaluations
			out.Cached = true
			resp.ResultCacheHits++
			continue
		}
		if exclude >= 0 {
			queries = append(queries, core.BatchIndex(exclude))
		} else {
			queries = append(queries, core.BatchPoint(point))
		}
		queryPos = append(queryPos, i)
	}

	// batchStats carries the engine-side accounting out of the compute
	// block so it lands in serverStats as one consistent transition.
	var batchStats struct{ odHits, odMisses, odEvals int64 }
	if len(queries) > 0 {
		// Batch traffic fails fast at the guard: it is programmatic and
		// retryable, so it is shed before interactive queries — but
		// after bulk scans — as the adaptive limit shrinks. A
		// fully-cached batch never reaches this admission.
		permit, rej := d.guard.Admit(r.Context(), overload.Batch, false)
		if rej != nil {
			if rej.Reason == overload.ReasonBreakerOpen {
				s.shedBreakerOpen(w, d.name, rej)
				return
			}
			w.Header().Set("Retry-After", strconv.Itoa(overload.RetryAfterSeconds(rej.RetryAfter)))
			s.error(w, http.StatusTooManyRequests,
				fmt.Sprintf("batch limit (%d concurrent) reached, retry later", s.opts.MaxConcurrentBatches))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.BatchTimeout)
		defer cancel()

		type outcome struct {
			res *core.BatchResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			computeStart := time.Now()
			if s.opts.FaultHook != nil {
				if _, err := s.opts.FaultHook("batch", d.name); err != nil {
					permit.Release(outcomeFor(err), time.Since(computeStart))
					done <- outcome{nil, err}
					return
				}
			}
			res, err := v.miner.QueryBatch(ctx, queries, core.BatchOptions{
				Workers: workers,
				Pool:    v.pool,
			})
			permit.Release(outcomeFor(err), time.Since(computeStart))
			done <- outcome{res, err}
		}()

		var res *core.BatchResult
		select {
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.error(w, http.StatusServiceUnavailable,
					fmt.Sprintf("batch exceeded the %s deadline", s.opts.BatchTimeout))
			} else {
				s.clientGone(w, "batch")
			}
			return
		case o := <-done:
			if o.err != nil {
				// QueryBatch is ctx-aware, so a deadline/cancel can surface
				// through its error rather than ctx.Done() when both are
				// ready; classify identically either way.
				switch {
				case errors.Is(o.err, context.DeadlineExceeded):
					s.error(w, http.StatusServiceUnavailable,
						fmt.Sprintf("batch exceeded the %s deadline", s.opts.BatchTimeout))
				case errors.Is(o.err, context.Canceled):
					s.clientGone(w, "batch")
				default:
					s.error(w, http.StatusInternalServerError, o.err.Error())
				}
				return
			}
			res = o.res
		}

		var batchODEvals int64
		for j, item := range res.Items {
			out := &resp.Results[queryPos[j]]
			if item.Err != nil {
				out.Error = item.Err.Error()
				continue
			}
			qr := item.Result
			out.IsOutlier = qr.IsOutlierAnywhere
			out.Minimal = masksToDims(qr.Minimal)
			out.OutlyingCount = len(qr.Outlying)
			out.ODEvaluations = qr.ODEvaluations
			batchODEvals += qr.ODEvaluations
			// Seed the LRU so follow-up /query (and /batch) traffic for
			// the same key hits, applying the same oversized-mask-set
			// rule as /query.
			toCache := &queryResponse{
				Index:         out.Index,
				Point:         out.Point,
				Threshold:     qr.Threshold,
				IsOutlier:     qr.IsOutlierAnywhere,
				Minimal:       out.Minimal,
				OutlyingCount: len(qr.Outlying),
				ODEvaluations: qr.ODEvaluations,
				// Copy: qr.Outlying is carved from the BatchResult's
				// arena; caching it directly would pin the whole batch's
				// arena for the lifetime of one LRU entry.
				outlyingMasks: append([]subspace.Mask(nil), qr.Outlying...),
			}
			if s.opts.MaxCachedMasks > 0 && len(qr.Outlying) > s.opts.MaxCachedMasks {
				toCache.outlyingMasks = nil
			}
			v.cache.put(keys[queryPos[j]], toCache)
		}
		resp.ODCacheHits = res.Cache.Hits
		resp.ODCacheMisses = res.Cache.Misses
		batchStats.odHits = res.Cache.Hits
		batchStats.odMisses = res.Cache.Misses
		batchStats.odEvals = batchODEvals
	}

	for i := range resp.Results {
		if resp.Results[i].Error != "" {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	resp.ElapsedMs = msSince(start)
	d.queries.Add(int64(len(req.Items)))
	s.stats.recordBatch(len(req.Items), batchStats.odHits, batchStats.odMisses, batchStats.odEvals)
	s.writeJSON(w, http.StatusOK, resp)
}
