package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// timedRun is the end-to-end run: set-up timed several times, a
// warm-up excluded from every number, the fixed-rate phase, the
// capacity ladder, and the answer check once the server has stopped.
func timedRun(c *config) (*report, error) {
	w := c.w
	in, err := makeInputs(w, c.seed)
	if err != nil {
		return nil, err
	}
	srv, setups, err := startMeasured(c, in, c.w.Setups)
	if err != nil {
		return nil, err
	}
	defer srv.Stop()

	gen := &Generator{Addr: srv.Addr, Conns: c.conns, Timeout: 10 * time.Second, Base: time.Now()}
	stream := newStream(w, in.DS, c.seed)
	var all []Result
	all = append(all, gen.Run(stream.Phase(baseScale(w), secs(w.WarmupS)))...)

	st0, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	wins, err := fixedPhase(c, srv, gen, stream)
	if err != nil {
		return nil, err
	}
	st1, err := srv.Stats()
	if err != nil {
		return nil, err
	}
	var fixed []Result
	for _, win := range wins {
		fixed = append(fixed, win.results...)
	}
	all = append(all, fixed...)

	// Capacity is printed, not a result metric, for the same reason as
	// the tail percentiles: bisection lands on a knee where the p99
	// turns on a shared machine's noise as much as on the program.
	all = append(all, capacity(c, gen, stream)...)

	// Ingest: the server's final state, read after the last phase.
	var final *serverStats
	var finalRes []Result
	if w.Kind == "ingest" {
		if final, err = srv.Stats(); err != nil {
			return nil, err
		}
		finalRes = finalSample(srv, c.seed, w.KeepLast)
	}
	rss, err := srv.PeakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.Stop()

	rep := &report{Correct: true, Attempted: len(all) + len(finalRes)}
	if err := checkRun(c, in, all, final, finalRes, rep); err != nil {
		return nil, err
	}

	q := latenciesMs(fixed, kindQuery)
	svc := serviceMs(fixed, kindQuery)
	lag := quantile(lagMs(fixed), 0.99)
	fmt.Printf("fixed phase: %d queries at %g req/s in %d windows; service p50 %.4g ms; loadgen.lag_p99_ms %.4g\n",
		len(q), baseRate(w), len(wins), median(svc), lag)
	if lag > c.design.LagLimitShare*median(svc) {
		return nil, fmt.Errorf("%w: generator lag p99 %.3g ms exceeds %.3g x the median service time %.3g ms",
			errInvalid, lag, c.design.LagLimitShare, median(svc))
	}
	if w.Kind == "ingest" {
		a := latenciesMs(fixed, kindAppend)
		fmt.Printf("append_p50_ms %.6g ms\nappend_p90_ms %.6g ms (%d appends)\n", median(a), quantile(a, 0.9), len(a))
		if c0, c1 := st0.Datasets[0].Live, st1.Datasets[0].Live; c1.AppendBatches > c0.AppendBatches {
			fmt.Printf("server.coalesce_ratio %.4g\n", float64(c1.Appends-c0.Appends)/float64(c1.AppendBatches-c0.AppendBatches))
		}
	}
	fmt.Printf("failed_frac %.6g (%d of %d)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)

	rep.set("setup_s", median(setups), "s")
	p50s, p90s, p99s, cpus := windowStats(wins)
	// The latencies are printed, not result metrics: on a small shared
	// machine they are set by stalls and slow spells outside the program
	// and spread across runs far beyond any usable bound.
	fmt.Printf("latency_p50_ms %.6g ms (median over %d one-second windows)\n", median(p50s), len(p50s))
	fmt.Printf("latency_p90_ms %.6g ms (median over %d one-second windows)\n", median(p90s), len(p90s))
	fmt.Printf("latency_p99_ms %.6g ms (median over %d runs of >= %d queries)\n", median(p99s), len(p99s), p99Queries)
	rep.set("server_cpu_us_per_req", median(cpus), "us")
	rep.set("server_rss_mb", rss, "MB")
	fmt.Println("end-to-end:")
	rep.printLines("")
	return rep, nil
}

// startMeasured writes the workload's CSV to the work directory and
// starts hosserve on it n times, each from a fresh data directory,
// keeping the last one running. It returns each start's set-up time in
// seconds.
func startMeasured(c *config, in *Inputs, n int) (*Server, []float64, error) {
	csvPath := filepath.Join(c.workdir, "data.csv")
	if err := os.WriteFile(csvPath, in.CSV, 0o644); err != nil {
		return nil, nil, err
	}
	var setups []float64
	for i := 0; ; i++ {
		args := serverArgs(c.design, csvPath)
		if c.w.Kind == "ingest" {
			dir := filepath.Join(c.workdir, fmt.Sprintf("data-dir-%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, err
			}
			args = append(args, "-data-dir", dir, "-wal-sync", "batch")
		}
		srv, err := startServer(c.hosserve, args, filepath.Join(c.workdir, fmt.Sprintf("hosserve-%d.log", i)))
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, srv.Setup.Seconds())
		if i+1 >= n {
			fmt.Printf("setup_s samples: %.4g\n", setups)
			return srv, setups, nil
		}
		srv.Stop()
	}
}

// baseScale is the Stream.Phase scale of the fixed-rate phase: the
// query rate, or a mix multiplier of 1 for ingest.
func baseScale(w *Workload) float64 {
	if w.Kind == "ingest" {
		return 1
	}
	return w.Rate
}

// baseRate is the total offered request rate (req/s) at scale 1 of the
// ingest mix, or the query rate.
func baseRate(w *Workload) float64 {
	if w.Kind == "ingest" {
		return w.Rate + w.AppendsPerS + w.AppendsPerS/float64(w.DeletesEvery)
	}
	return w.Rate
}

// finalSample queries a seeded sample of rows after an ingest run,
// untimed, for the final-state check.
func finalSample(srv *Server, seed int64, rows int) []Result {
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([]Result, 64)
	for i := range out {
		r := rowQuery(rng.Intn(rows))
		status, body, err := srv.Post(r)
		out[i] = Result{Req: r, Status: status, Body: body, Err: err}
	}
	return out
}

// checkRun checks every answer against the reference and records the
// failures in rep.
func checkRun(c *config, in *Inputs, all []Result, final *serverStats, finalRes []Result, rep *report) error {
	if c.w.Kind != "ingest" {
		ref, err := newReference(c.design, in.DS)
		if err != nil {
			return err
		}
		var reqs []*Request
		for i := range all {
			reqs = append(reqs, all[i].Req)
		}
		ans, err := referenceAnswers(ref, reqs, c.conns)
		if err != nil {
			return err
		}
		rep.Failed = checkQueries(all, ans)
		rep.Correct = rep.Failed == 0
		return nil
	}
	ic, err := checkIngest(c.design, in.DS, all)
	if err != nil {
		fmt.Println("answer check:", err)
		rep.Correct = false
		rep.Failed = rep.Attempted
		return nil
	}
	rep.Failed = ic.Failed
	if final != nil {
		ev, err := ic.Final.NewWorkerEvaluator()
		if err != nil {
			return err
		}
		for i := range finalRes {
			r := &finalRes[i]
			want, err := refAnswer(ic.Final, ev, r.Req)
			if err != nil {
				return err
			}
			var got answer
			if !r.OK() || json.Unmarshal(r.Body, &got) != nil || !got.equal(want) {
				rep.Failed++
			}
		}
		ds := final.Datasets[0]
		if ds.N != ic.Final.Dataset().N() || ds.Live.NextID != ic.NextID {
			fmt.Printf("answer check: server n=%d next_id=%d, reference n=%d next_id=%d\n",
				ds.N, ds.Live.NextID, ic.Final.Dataset().N(), ic.NextID)
			rep.Correct = false
		}
	}
	rep.Correct = rep.Correct && rep.Failed == 0
	return nil
}

// window is one second of the fixed-rate phase and the server CPU it
// cost.
type window struct {
	results []Result
	cpu     time.Duration
}

// fixedPhase runs the fixed-rate phase as one-second windows. The
// latency and CPU figures are medians over windows, so a machine stall
// or a short slow spell moves a few windows rather than the whole
// result, while a slower program moves every window.
func fixedPhase(c *config, srv *Server, gen *Generator, stream *Stream) ([]window, error) {
	var wins []window
	for i := 0; i < max(1, int(c.seconds/time.Second)); i++ {
		cpu0, err := srv.CPU()
		if err != nil {
			return nil, err
		}
		res := gen.Run(stream.Phase(baseScale(c.w), time.Second))
		cpu1, err := srv.CPU()
		if err != nil {
			return nil, err
		}
		wins = append(wins, window{res, cpu1 - cpu0})
	}
	return wins, nil
}

// p99Queries is the fewest queries a p99 is taken over: enough that
// ten samples lie beyond it.
const p99Queries = 1000

// windowStats returns each window's median and p90 query latency (ms)
// and server CPU per answered request (µs), and the p99 latency (ms) of
// each run of consecutive windows holding at least p99Queries queries
// (the whole phase when it holds fewer).
func windowStats(wins []window) (p50s, p90s, p99s, cpus []float64) {
	var pool []float64
	for i, win := range wins {
		q := latenciesMs(win.results, kindQuery)
		p50s = append(p50s, median(q))
		p90s = append(p90s, quantile(q, 0.9))
		cpus = append(cpus, us(win.cpu)/float64(max(1, countOK(win.results))))
		pool = append(pool, q...)
		if len(pool) >= p99Queries || (i == len(wins)-1 && len(p99s) == 0) {
			p99s = append(p99s, quantile(pool, 0.99))
			pool = nil
		}
	}
	return p50s, p90s, p99s, cpus
}

// capacity bisects the workload's ladder for the highest rung that
// meets its limits. A rung fails only after two failed attempts, so a
// transient machine stall does not halve the answer, while a rung
// beyond the server's capacity fails every time. Capacity below the
// ladder reports the rung below its first. It returns every probe's
// results.
func capacity(c *config, gen *Generator, stream *Stream) []Result {
	w, l := c.w, c.w.Ladder
	var all []Result
	probes := 0
	lo, hi := -1, l.Steps
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pass := false
		for try := 0; try < 2 && !pass; try++ {
			time.Sleep(100 * time.Millisecond) // let the previous probe's backlog drain
			res := gen.Run(stream.Phase(l.Rung(mid), secs(l.ProbeS)))
			pass = meetsLimits(w, res)
			all = append(all, res...)
			probes++
			fmt.Printf("probe rung %d (%.5g): query p99 %.4g ms, append p90 %.4g ms, pass=%v\n", mid, l.Rung(mid),
				quantile(latenciesMs(res, kindQuery), 0.99), quantile(latenciesMs(res, kindAppend), 0.9), pass)
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	rate := l.Rung(lo)
	if w.Kind == "ingest" {
		rate *= baseRate(w)
	}
	fmt.Printf("capacity_rps %.6g req/s (ladder rung %d of %d; %d probes)\n", rate, lo, l.Steps, probes)
	return all
}

// meetsLimits is a ladder probe's verdict: every request answered, the
// query p99 (and, for ingest, the append p90) within its limit, and no
// backlog left growing at the end of the probe.
func meetsLimits(w *Workload, res []Result) bool {
	if countOK(res) != len(res) || len(res) == 0 {
		return false
	}
	if quantile(latenciesMs(res, kindQuery), 0.99) > w.P99LimitMs {
		return false
	}
	if w.Kind == "ingest" && quantile(latenciesMs(res, kindAppend), 0.9) > w.AppendP90LimitMs {
		return false
	}
	tail := res[len(res)-max(1, len(res)/10):]
	for i := range tail {
		if ms(tail[i].Sent-tail[i].Intended) > w.P99LimitMs {
			return false
		}
	}
	return true
}
