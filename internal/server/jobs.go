package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/overload"
)

// This file is the asynchronous face of /scan: the same full-lattice
// sweep, but submitted to the bounded job subsystem (internal/jobs)
// instead of racing a request deadline. A scan that would blow
// ScanTimeout — the paper's headline operation over any serious
// dataset — used to 503 and throw away every completed point; as a
// job it keeps running on the job worker pool, reports monotonic
// progress (points evaluated / dataset size), and holds its result
// for JobResultTTL:
//
//	POST   /jobs/scan   submit (body = the /scan body)   → 202 + job id
//	GET    /jobs        list retained jobs + counters
//	GET    /jobs/{id}   status, progress, result when done
//	DELETE /jobs/{id}   cancel (queued: immediate; running: cooperative)
//
// Admission is circuit-style: the queue depth is the budget, a full
// queue answers 429 with a Retry-After estimated from recent job run
// times and the current backlog — an honest "come back later", not a
// blind rejection. POST /scan is the same job with a waiting client:
// it submits through submitScan and blocks in jobs.Manager.Wait, so
// every scan shares one worker pool (JobWorkers) and one queue.

// jobProgress is the progress section of a job response.
type jobProgress struct {
	// Done/Total are points evaluated so far vs dataset size (0/0
	// before the first report).
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
	// Percent is Done/Total rounded to one decimal (0 when unknown).
	Percent float64 `json:"percent"`
}

// jobResponse is the JSON rendering of one job for every /jobs
// endpoint.
type jobResponse struct {
	ID         string      `json:"id"`
	Kind       string      `json:"kind"`
	State      string      `json:"state"`
	Progress   jobProgress `json:"progress"`
	CreatedAt  string      `json:"created_at"`
	StartedAt  string      `json:"started_at,omitempty"`
	FinishedAt string      `json:"finished_at,omitempty"`
	// ElapsedMs is run time so far (running) or final (terminal).
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Result is the scanResponse of a done scan job.
	Result any `json:"result,omitempty"`
}

type listJobsResponse struct {
	Jobs     []jobResponse `json:"jobs"`
	Counters JobStats      `json:"counters"`
}

// toJobStats renders manager counters for /stats and GET /jobs — the
// single mapping both endpoints share.
func toJobStats(c jobs.Counters) JobStats {
	return JobStats{
		Submitted: c.Submitted,
		Rejected:  c.Rejected,
		Queued:    c.Queued,
		Running:   c.Running,
		Completed: c.Completed,
		Failed:    c.Failed,
		Cancelled: c.Cancelled,
		Abandoned: c.Abandoned,
	}
}

func renderJob(snap jobs.Snapshot) jobResponse {
	out := jobResponse{
		ID:        snap.ID,
		Kind:      snap.Kind,
		State:     snap.State.String(),
		CreatedAt: snap.Created.UTC().Format(time.RFC3339Nano),
	}
	out.Progress = jobProgress{Done: snap.Done, Total: snap.Total}
	if snap.Total > 0 {
		out.Progress.Percent = math.Round(1000*float64(snap.Done)/float64(snap.Total)) / 10
	}
	if !snap.Started.IsZero() {
		out.StartedAt = snap.Started.UTC().Format(time.RFC3339Nano)
		end := snap.Finished
		if end.IsZero() {
			end = time.Now()
		}
		out.ElapsedMs = float64(end.Sub(snap.Started)) / float64(time.Millisecond)
	}
	if !snap.Finished.IsZero() {
		out.FinishedAt = snap.Finished.UTC().Format(time.RFC3339Nano)
	}
	if snap.Err != nil {
		out.Error = snap.Err.Error()
	}
	if snap.State == jobs.StateDone {
		out.Result = snap.Result
	}
	return out
}

// handleSubmitScanJob accepts the /scan request body and runs the
// sweep asynchronously. 202 + job id on admission; 429 + Retry-After
// when the queue is full.
func (s *Server) handleSubmitScanJob(w http.ResponseWriter, r *http.Request) {
	plan, ok := s.planScan(w, r)
	if !ok {
		return
	}
	snap, ok := s.submitScan(w, plan)
	if !ok {
		return
	}
	s.debugf("server: job %s admitted (dataset %s, %d workers)", snap.ID, plan.d.name, plan.workers)
	resp := renderJob(snap)
	w.Header().Set("Location", "/jobs/"+snap.ID)
	s.writeJSON(w, http.StatusAccepted, &resp)
}

// submitScan admits a planned scan and queues it as a job — the one
// way a scan runs, whether the client polls for it (POST /jobs/scan)
// or waits on it (POST /scan). On refusal it writes the response
// itself and returns false.
func (s *Server) submitScan(w http.ResponseWriter, plan *scanPlan) (jobs.Snapshot, bool) {
	// Jobs run on their own worker pool, so the guard admits them
	// detached — no concurrency permit is held through queueing and
	// execution — but the dataset's breaker and the bulk class's share
	// of the adaptive limit still gate submission: a dataset that is
	// drowning must not keep accepting sweeps it cannot serve. The
	// job's outcome feeds back via RecordDetached below.
	if rej := plan.d.guard.AdmitDetached(overload.Bulk); rej != nil {
		if rej.Reason == overload.ReasonBreakerOpen {
			s.shedBreakerOpen(w, plan.d.name, rej)
			return jobs.Snapshot{}, false
		}
		retry := overload.RetryAfterSeconds(rej.RetryAfter)
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.error(w, http.StatusTooManyRequests,
			fmt.Sprintf("dataset %q at its bulk concurrency share, retry in ~%ds", plan.d.name, retry))
		return jobs.Snapshot{}, false
	}
	return s.submitJob(w, "scan", func(jobCtx context.Context, report func(done, total int)) (any, error) {
		runCtx := jobCtx
		if s.opts.JobTimeout > 0 {
			var cancel context.CancelFunc
			runCtx, cancel = context.WithTimeout(jobCtx, s.opts.JobTimeout)
			defer cancel()
		}
		// The result's elapsed_ms is the scan's run time: the clock
		// starts when a worker picks the job up, not at submission —
		// queue wait is visible separately (created_at vs started_at).
		resp, err := plan.run(runCtx, report)
		// The detached admission's outcome lands in the breaker window
		// before the error is dressed up for the poller: a job-timeout
		// or engine failure is evidence against the dataset, while a
		// cancelled job proves nothing either way.
		plan.d.guard.RecordDetached(outcomeFor(err))
		if err != nil {
			// A deadline with the job's own context still live is the
			// JobTimeout backstop firing; name it, or the poller sees
			// a bare "context deadline exceeded" indistinguishable
			// from any other failure.
			if errors.Is(err, context.DeadlineExceeded) && jobCtx.Err() == nil {
				return nil, fmt.Errorf("job exceeded the %s job-timeout: %w", s.opts.JobTimeout, err)
			}
			return nil, err
		}
		plan.d.queries.Add(1)
		s.stats.recordScan()
		return resp, nil
	})
}

// submitJob queues fn and maps the queue's refusals onto HTTP — the
// one mapping every job-submitting endpoint shares. On refusal it
// writes the response itself and returns false.
func (s *Server) submitJob(w http.ResponseWriter, kind string, fn jobs.Fn) (jobs.Snapshot, bool) {
	snap, err := s.jobs.Submit(kind, fn)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		// The shared helper floors the estimate at 1s: whatever the
		// estimator returns (it has no run-time history before the
		// first job finishes), "Retry-After: 0" is never a sane header
		// on a 429 — a literal client would hammer the full queue in a
		// zero-delay loop. Breaker-open 503s go through the same floor
		// (shedBreakerOpen), so no rejection path can undercut it.
		retry := overload.RetryAfterSeconds(s.jobs.RetryAfter())
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		s.error(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued), retry in ~%ds", s.opts.JobQueueDepth, retry))
		return snap, false
	case errors.Is(err, jobs.ErrClosed):
		s.error(w, http.StatusServiceUnavailable, "server is draining, no new jobs")
		return snap, false
	case err != nil:
		s.error(w, http.StatusInternalServerError, err.Error())
		return snap, false
	}
	return snap, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound,
			fmt.Sprintf("job %q not found (finished jobs are retained for %s)", r.PathValue("id"), s.opts.JobResultTTL))
		return
	}
	resp := renderJob(snap)
	s.writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, fmt.Sprintf("job %q not found", r.PathValue("id")))
		return
	}
	s.debugf("server: job %s cancel requested (state %s)", snap.ID, snap.State)
	resp := renderJob(snap)
	// Cancelling a job that already finished is a no-op that reports
	// the terminal state; it is not a delivery channel — only GET
	// /jobs/{id} and a waiting POST /scan serve the result, because
	// only they mark it fetched and an unfetched delivery would later
	// read as abandoned.
	resp.Result = nil
	s.writeJSON(w, http.StatusOK, &resp)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	snaps := s.jobs.List()
	resp := &listJobsResponse{
		Jobs:     make([]jobResponse, len(snaps)),
		Counters: toJobStats(s.jobs.Counters()),
	}
	for i, snap := range snaps {
		resp.Jobs[i] = renderJob(snap)
		// The listing is an index, not a delivery channel: embedding
		// every retained result would re-serialize up to MaxScanResults
		// hits per done job on every poll, and a result read here would
		// not mark the job fetched (only GET /jobs/{id} and a waiting
		// POST /scan do, which is what keeps the abandoned counter
		// honest).
		resp.Jobs[i].Result = nil
	}
	s.writeJSON(w, http.StatusOK, resp)
}
