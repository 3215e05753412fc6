// Command hosserve exposes HOS-Miner as a long-lived HTTP/JSON
// service: load a dataset once, preprocess once (X-tree indexing,
// threshold resolution, §3.2 learning — or restore all of it from a
// snapshot), and answer concurrent outlying-subspace queries until
// shut down.
//
// Usage:
//
//	hosserve -data data.csv -k 5 -tq 0.95 -addr :8080
//	hosserve -gen synthetic -n 2000 -d 8 -k 5 -tq 0.95
//	hosserve -gen synthetic -n 20000 -d 8 -k 5 -tq 0.95 -shards 4
//	hosserve -gen synthetic -n 20000 -d 8 -k 5 -tq 0.95 -data-dir ./snaps
//	hosserve -data-dir ./snaps   # warm restart: default.snap + background warm start
//
// The startup dataset becomes the registry's "default" entry; more
// datasets can be loaded and evicted at runtime. Endpoints (see
// README.md for a curl transcript):
//
//	POST /query          {"index": 3} or {"point": [..]}, optional "dataset"
//	POST /scan           {"max_results": 10, ...}, optional "dataset";
//	                     runs as a scan job and waits for it
//	POST /jobs/scan      the same body, without waiting → job id
//	GET  /jobs/{id}      poll job status/progress; DELETE cancels
//	POST /batch          {"items": [...]}, optional "dataset"
//	GET  /datasets       registry listing with shard topology
//	POST /datasets/load  generate (or load from a -data-dir snapshot)
//	                     + preprocess + register a dataset
//	POST /datasets/evict drop a loaded dataset
//	POST /datasets/{name}/save
//	                     persist an entry to <data-dir>/<name>.snap
//	POST /datasets/{name}/append
//	                     stream rows into a serving dataset (new epoch)
//	DELETE /datasets/{name}/rows
//	                     delete rows by stable-ID range or keep_last
//	GET  /datasets/{name}/retention
//	PUT  /datasets/{name}/retention
//	                     read / set the per-dataset retention policy
//	                     ({"max_age": "24h", "max_rows": 100000})
//	POST /datasets/{name}/compact
//	                     fold the dataset's WAL into a fresh snapshot
//	GET  /healthz        liveness + default dataset summary
//	GET  /stats          query counts, cache hits, latency percentiles,
//	                     per-dataset and per-shard counters
//
// The process drains in-flight requests and exits cleanly on SIGINT /
// SIGTERM. See also the batch front-ends: hosminer (one-shot queries),
// hosgen (dataset generation) and hosbench (experiment tables).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/vector"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hosserve:", err)
		os.Exit(1)
	}
}

// cliConfig is everything run parses out of the flags.
type cliConfig struct {
	addr      string
	pprofAddr string

	dataPath  string
	gen       string
	n, d      int
	outliers  int
	deviants  int
	normalize bool

	miner    core.Config
	dataDir  string
	debug    bool
	jobDrain time.Duration

	// explicit records which flags the operator actually set (not
	// defaults), so the snapshot-restore path can reject flags it
	// would otherwise silently ignore.
	explicit map[string]bool

	srv server.Options
}

// run is the testable entry point: parse flags, build the service,
// then serve until the context delivered by SIGINT/SIGTERM ends.
func run(args []string, stdout, stderr io.Writer) error {
	cc, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	srv, ds, m, err := setup(cc, stderr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset: %d points x %d dims; T = %.4g; backend = %s\n",
		ds.N(), ds.Dim(), m.Threshold(), m.Config().Backend)
	if e := m.ShardEngine(); e != nil {
		fmt.Fprintf(stdout, "sharding: %d shards (%s partitioner), sizes %v\n",
			e.NumShards(), e.Config().Partitioner, e.ShardSizes())
	}

	if cc.pprofAddr != "" {
		stopPprof, err := startPprof(cc.pprofAddr, stdout)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, cc.addr, srv, cc.jobDrain, stdout)
}

// pprofMux is the debug surface served on -pprof-addr: the standard
// net/http/pprof handlers on a mux of their own, so profiling never
// rides on the public API listener and can be bound to localhost
// while the service listens on all interfaces.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startPprof serves the pprof mux on addr until the returned stop
// function is called. A listen failure is a startup error — an
// operator who asked for profiling must not silently run without it.
func startPprof(addr string, stdout io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	s := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.Serve(ln) }()
	fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { _ = s.Close() }, nil
}

// parseFlags builds a cliConfig from the argument list.
func parseFlags(args []string, stderr io.Writer) (*cliConfig, error) {
	fs := flag.NewFlagSet("hosserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "hosserve — serve concurrent outlying-subspace queries over HTTP/JSON.")
		fmt.Fprintln(stderr, "Endpoints: POST /query, /batch, /scan, /jobs/scan (async), /datasets/load, /datasets/evict; GET /jobs, /jobs/{id}, /datasets, /healthz, /stats (see README.md).")
		fmt.Fprintln(stderr, "See also: hosminer (one-shot queries), hosgen (datasets), hosbench (experiments).")
		fmt.Fprintln(stderr, "Flags:")
		fs.PrintDefaults()
	}
	var cc cliConfig
	var backend, policy, partitioner, walSync string
	fs.StringVar(&cc.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cc.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	fs.StringVar(&cc.dataPath, "data", "", "CSV dataset path (use -data or -gen)")
	fs.StringVar(&cc.gen, "gen", "", "generate the dataset instead: synthetic|uniform|athlete|medical|nba")
	fs.IntVar(&cc.n, "n", 1000, "with -gen: number of points")
	fs.IntVar(&cc.d, "d", 8, "with -gen synthetic|uniform: dimensionality")
	fs.IntVar(&cc.outliers, "outliers", 5, "with -gen synthetic: planted outliers")
	fs.IntVar(&cc.deviants, "deviants", 5, "with -gen athlete|medical|nba: planted deviants")
	fs.BoolVar(&cc.normalize, "normalize", false, "min-max normalize columns before mining")
	fs.IntVar(&cc.miner.K, "k", 5, "neighbourhood size of the OD measure")
	fs.Float64Var(&cc.miner.T, "t", 0, "absolute OD threshold T (use -t or -tq)")
	fs.Float64Var(&cc.miner.TQuantile, "tq", 0, "threshold as a quantile of full-space ODs, e.g. 0.95")
	fs.IntVar(&cc.miner.SampleSize, "samples", 0, "sample size for the learning phase (0 = uniform priors)")
	fs.Int64Var(&cc.miner.Seed, "seed", 1, "random seed (generation and mining)")
	fs.StringVar(&backend, "backend", "auto", "k-NN backend: auto|linear|xtree")
	fs.IntVar(&cc.miner.Shards, "shards", 0, "partition the dataset across N scatter-gather shards (0 = single index)")
	fs.StringVar(&partitioner, "partitioner", "roundrobin", "with -shards: row assignment, roundrobin|hash")
	fs.StringVar(&policy, "policy", "tsf", "search order: tsf|bottomup|topdown|random")
	fs.StringVar(&cc.dataDir, "data-dir", "", "snapshot directory: warm-start every *.snap in it at boot (background jobs), enable POST /datasets/{name}/save and file loads; with no -data/-gen, serve default.snap from it as the default dataset")
	fs.BoolVar(&cc.srv.WAL, "wal", true, "with -data-dir: write-ahead log live mutations (POST /datasets/{name}/append, DELETE .../rows) beside each snapshot and replay the log on restart")
	fs.StringVar(&walSync, "wal-sync", "batch", "WAL fsync policy: batch (one fsync per coalesced append batch), always (fsync every record; durable through power loss), or interval=<duration> (time-coalesced; may lose acknowledged mutations inside the window)")
	fs.Int64Var(&cc.srv.WALCompactBytes, "wal-compact-bytes", 0, "auto-compact a dataset's WAL into a fresh snapshot once it exceeds this size (default 4 MiB, negative disables)")
	fs.DurationVar(&cc.srv.RetentionAge, "retention-age", 0, "expire dataset rows older than this via background sweeps (0 disables; override per dataset with PUT /datasets/{name}/retention)")
	fs.IntVar(&cc.srv.RetentionRows, "retention-rows", 0, "cap each dataset's row count, expiring the oldest rows (0 disables; same per-dataset override)")
	fs.DurationVar(&cc.srv.RetentionInterval, "retention-interval", 0, "cadence of the background retention sweeper (default 30s)")
	fs.IntVar(&cc.srv.CacheSize, "cache", 0, "LRU result-cache entries (0 = default 1024, negative disables)")
	fs.DurationVar(&cc.srv.QueryTimeout, "query-timeout", 0, "per-query deadline (default 10s)")
	fs.DurationVar(&cc.srv.ScanTimeout, "scan-timeout", 0, "POST /scan deadline, queue wait included (default 2m)")
	fs.Int64Var(&cc.srv.MaxBodyBytes, "max-body", 0, "request body limit in bytes (default 1 MiB)")
	fs.IntVar(&cc.srv.ScanWorkers, "scan-workers", 0, "per-scan fan-out (default GOMAXPROCS)")
	fs.IntVar(&cc.srv.MaxScanResults, "max-scan-results", 0, "cap on hits per /scan (default 1000)")
	fs.IntVar(&cc.srv.MaxConcurrentQueries, "max-queries", 0, "cap on concurrently computing queries (default 4x GOMAXPROCS)")
	fs.IntVar(&cc.srv.MaxDatasets, "max-datasets", 0, "cap on registry size incl. the startup dataset (default 8)")
	fs.IntVar(&cc.srv.JobQueueDepth, "job-queue", 0, "job queue depth, shared by /scan, /jobs/scan and compaction; a full queue answers 429 + Retry-After (default 8)")
	fs.IntVar(&cc.srv.JobWorkers, "job-workers", 0, "job worker pool size: how many scans run at once (default 1)")
	fs.DurationVar(&cc.srv.JobResultTTL, "job-ttl", 0, "retention of finished async job results (default 15m)")
	fs.DurationVar(&cc.srv.JobTimeout, "job-timeout", 0, "runaway backstop per async job (default 30m, negative disables)")
	fs.DurationVar(&cc.jobDrain, "job-drain", 30*time.Second, "on shutdown, how long queued/running async jobs may finish before being cancelled")
	fs.DurationVar(&cc.srv.Overload.Window, "breaker-window", 0, "per-dataset circuit-breaker outcome window (default 10s)")
	fs.DurationVar(&cc.srv.Overload.CoolDown, "breaker-cooldown", 0, "how long an open breaker rejects before half-open probing (default 5s)")
	fs.Float64Var(&cc.srv.Overload.FailureRatio, "breaker-ratio", 0, "error+timeout ratio that trips a dataset's breaker (default 0.5)")
	fs.IntVar(&cc.srv.Overload.MinSamples, "breaker-min-samples", 0, "volume floor before a breaker may trip (default 10)")
	fs.IntVar(&cc.srv.Overload.MinLimit, "limit-min", 0, "floor of the per-dataset adaptive concurrency limit (default 1)")
	fs.IntVar(&cc.srv.Overload.MaxLimit, "limit-max", 0, "ceiling of the per-dataset adaptive concurrency limit (default: sum of the class caps)")
	fs.DurationVar(&cc.srv.Overload.TargetP99, "target-p99", 0, "query p99 the AIMD limiter defends per dataset (default query-timeout/2)")
	fs.BoolVar(&cc.debug, "debug", false, "log debug-level serving events (abandoned scans, job lifecycle)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cc.explicit = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { cc.explicit[f.Name] = true })
	var err error
	if cc.srv.WALSync, err = wal.ParseSyncPolicy(walSync); err != nil {
		return nil, err
	}
	if cc.miner.Backend, err = core.ParseBackend(backend); err != nil {
		return nil, err
	}
	if cc.miner.Policy, err = core.ParsePolicy(policy); err != nil {
		return nil, err
	}
	if cc.miner.Partitioner, err = shard.ParsePartitioner(partitioner); err != nil {
		return nil, err
	}
	return &cc, nil
}

// setup loads or generates the dataset (or restores it from a
// snapshot), builds and preprocesses the miner, wraps it in a server
// and warm-starts any remaining snapshots in -data-dir; stderr
// receives debug-level serving events under -debug.
func setup(cc *cliConfig, stderr io.Writer) (*server.Server, *vector.Dataset, *core.Miner, error) {
	cc.srv.DataDir = cc.dataDir
	// With no dataset source but a data dir holding default.snap, the
	// default dataset itself comes back from disk: the lossless-restart
	// path, no regeneration, no re-indexing, no re-learning.
	if cc.dataPath == "" && cc.gen == "" && cc.dataDir != "" {
		if _, err := os.Stat(filepath.Join(cc.dataDir, server.DefaultDatasetName+".snap")); err == nil {
			return setupFromSnapshot(cc, stderr)
		}
	}
	ds, err := loadDataset(cc)
	if err != nil {
		return nil, nil, nil, err
	}
	cc.srv.Provenance = snapshot.Provenance{
		Generator: cc.gen, Seed: cc.miner.Seed, Source: cc.dataPath,
		Normalized: cc.normalize, CreatedUnix: time.Now().Unix(),
	}
	if cc.normalize {
		// The server rescales raw-unit /query points and appended rows
		// by these ranges, and snapshots of the dataset carry them.
		ds, cc.srv.NormStats = snapshot.Normalize(ds)
	}
	cfg := cc.miner
	cfg.ClampSampleSize(ds.N())
	m, err := core.NewMiner(ds, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if cc.debug {
		// The injected stderr, not the process-global logger: run()'s
		// writer-injection contract is what lets tests (and multiple
		// servers in one process) capture their own debug stream.
		cc.srv.Logf = log.New(stderr, "", log.LstdFlags).Printf
	}
	srv, err := server.New(m, cc.srv) // runs Preprocess
	if err != nil {
		return nil, nil, nil, err
	}
	if err := warmStart(srv, cc, stderr); err != nil {
		return nil, nil, nil, err
	}
	return srv, ds, m, nil
}

// setupFromSnapshot restores the default dataset wholesale from
// <data-dir>/default.snap: dataset bytes, miner configuration,
// threshold, priors and the serialized index all come from the file,
// so flags that would re-derive any of them are conflicts.
func setupFromSnapshot(cc *cliConfig, stderr io.Writer) (*server.Server, *vector.Dataset, *core.Miner, error) {
	// Every flag the snapshot supersedes is a hard conflict when set
	// explicitly — silently ignoring an operator's -k or -shards would
	// let them believe they reconfigured a service that is in fact
	// serving the snapshot's original topology.
	for _, name := range []string{"t", "tq", "samples", "k", "seed", "shards", "backend", "policy", "partitioner",
		"n", "d", "outliers", "deviants", "normalize"} {
		if cc.explicit[name] {
			return nil, nil, nil, fmt.Errorf("-%s conflicts with restoring from %s/default.snap (the snapshot supplies the dataset and miner configuration; use -gen/-data to build fresh instead)", name, cc.dataDir)
		}
	}
	path := filepath.Join(cc.dataDir, server.DefaultDatasetName+".snap")
	snap, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if !snap.HasState() {
		return nil, nil, nil, fmt.Errorf("%s is a dataset-only snapshot; serve it with -data/-gen parameters or re-save it from a running hosserve", path)
	}
	m, err := snap.Restore()
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Fprintf(stderr, "restored default dataset from %s (no regeneration)\n", path)
	// A normalized snapshot carries its raw column ranges, so raw-unit
	// client vectors keep being rescaled exactly as before the restart.
	cc.srv.Provenance, cc.srv.NormStats = snap.Provenance, snap.NormStats
	if cc.debug {
		cc.srv.Logf = log.New(stderr, "", log.LstdFlags).Printf
	}
	srv, err := server.New(m, cc.srv)
	if err != nil {
		return nil, nil, nil, err
	}
	// Replay the default dataset's delta log over the restored base.
	// This runs only on this boot path: after -gen/-data the base is
	// fresh and a lingering default.wal belongs to an earlier dataset.
	// A replay problem degrades to serving the base snapshot with a
	// warning — the deltas are still on disk for a post-mortem.
	if cc.srv.WAL {
		switch n, err := srv.AttachDefaultWAL(); {
		case err != nil:
			fmt.Fprintf(stderr, "warning: default dataset WAL not replayed (serving the base snapshot): %v\n", err)
		case n > 0:
			fmt.Fprintf(stderr, "replayed %d WAL record(s) onto the default dataset\n", n)
		}
	}
	if err := warmStart(srv, cc, stderr); err != nil {
		return nil, nil, nil, err
	}
	return srv, snap.Dataset, m, nil
}

// warmStart registers the data dir's remaining snapshots as
// background jobs (no-op without -data-dir). A warm-start problem —
// an unreadable directory, a job queue too shallow for the snapshot
// count — degrades to partial warm start with a warning, never a
// failed boot: the already-registered datasets are serving and the
// rest can be loaded by hand, which beats an outage every time a
// stale file accumulates in the directory.
func warmStart(srv *server.Server, cc *cliConfig, stderr io.Writer) error {
	if cc.dataDir == "" {
		return nil
	}
	n, err := srv.WarmStart()
	if err != nil {
		fmt.Fprintf(stderr, "warning: partial warm start from %s (%d submitted): %v — load the rest via POST /datasets/load or raise -job-queue\n", cc.dataDir, n, err)
	}
	if n > 0 {
		fmt.Fprintf(stderr, "warm-starting %d snapshot(s) from %s in the background (progress: GET /jobs)\n", n, cc.dataDir)
	}
	return nil
}

func loadDataset(cc *cliConfig) (*vector.Dataset, error) {
	switch {
	case cc.dataPath != "" && cc.gen != "":
		return nil, fmt.Errorf("use either -data or -gen, not both")
	case cc.dataPath != "":
		return dataio.LoadFile(cc.dataPath)
	case cc.gen != "":
		ds, _, err := generate(cc)
		return ds, err
	default:
		return nil, fmt.Errorf("provide a dataset: -data file.csv, -gen synthetic|uniform|athlete|medical|nba, or -data-dir with a default.snap")
	}
}

func generate(cc *cliConfig) (*vector.Dataset, datagen.GroundTruth, error) {
	planted := cc.outliers
	if cc.gen != "synthetic" {
		planted = cc.deviants
	}
	return datagen.ByName(cc.gen, datagen.NamedConfig{
		N: cc.n, D: cc.d, Planted: planted, Seed: cc.miner.Seed,
	})
}

// serve listens on addr and blocks until ctx is cancelled, then
// drains in-flight requests (15s) and queued async jobs (jobDrain —
// its own budget, since the jobs this subsystem exists for run far
// longer than any HTTP drain window) before returning.
func serve(ctx context.Context, addr string, srv *server.Server, jobDrain time.Duration, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "serving on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	// Shutdown closes the listener immediately, so no new jobs can
	// arrive even if draining in-flight requests blows the budget (a
	// POST /scan waits on its scan job, queue included, for up to
	// ScanTimeout — 2min by default). The job drain must therefore run
	// regardless of Shutdown's verdict, and on a budget of its own —
	// sharing the HTTP window would hand a drain that waited out a slow
	// request an already-expired context and cancel every job
	// unconditionally. A /scan still waiting when the drain cancels its
	// job is answered 503. A drain cut short by its deadline has
	// cancelled the stragglers; that is the graceful-exit contract, not
	// a failure.
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	drainCtx, drainCancel := context.WithTimeout(context.Background(), jobDrain)
	defer drainCancel()
	if err := srv.Close(drainCtx); err != nil {
		fmt.Fprintf(stdout, "job drain cut short after %s: %v\n", jobDrain, err)
	}
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "bye")
	return nil
}
