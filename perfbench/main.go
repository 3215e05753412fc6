// Command perfbench is the repository's benchmark. One invocation runs
// one workload end to end against a real hosserve built from the tree:
//
//	perfbench -hosserve <bin> -workdir <dir> --workload query-rows --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it measures the end-to-end metrics under open-loop
// HTTP load; with --trace 1 it replays the same requests in process
// through each layer's public functions and prints the per-layer
// ladder. Every answer is checked against an in-process reference. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// perfbench/run.sh builds both binaries and runs this from the
// repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

// printLines prints the metrics whose names start with one of the
// prefixes, in prefix order, one readable line each.
func (r *report) printLines(prefixes ...string) {
	for _, p := range prefixes {
		var names []string
		for n := range r.Metrics {
			if strings.HasPrefix(n, p) {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
		}
	}
}

// printJSON writes the result line. It fails on a value JSON cannot
// carry (NaN or ±Inf), which only a run with no usable samples gives.
func (r *report) printJSON() error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// errInvalid marks a run the benchmark refuses to report.
var errInvalid = errors.New("invalid run")

// config is one invocation.
type config struct {
	design   *Design
	w        *Workload
	seed     int64
	seconds  time.Duration
	hosserve string
	workdir  string
	conns    int
}

func main() {
	workload := flag.String("workload", "", "workload name from design.json")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 12, "length of the fixed-rate phase in seconds, measured as one-second windows")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	hosserve := flag.String("hosserve", "", "hosserve binary built from this tree")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for inputs, logs and the WAL")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace, *hosserve, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, hosserve, workdir string) error {
	d, err := loadDesign()
	if err != nil {
		return err
	}
	w, err := d.workload(workload)
	if err != nil {
		return err
	}
	if hosserve == "" {
		return errors.New("-hosserve is required")
	}
	if err := os.RemoveAll(workdir); err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	cfg := &config{design: d, w: w, seed: seed, seconds: secs(seconds), hosserve: hosserve, workdir: workdir,
		conns: min(d.Connections, runtime.NumCPU())}
	// hosserve runs with the default GOMAXPROCS (nproc). Each generator
	// worker holds its P while it sleeps (see sleepUntil), so the
	// benchmark keeps spare Ps for everything else it runs meanwhile.
	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s connections=%d\n",
		w.Name, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), cfg.conns)
	runtime.GOMAXPROCS(2*cfg.conns + 4)
	var rep *report
	if trace == 1 {
		rep, err = tracedRun(cfg)
	} else {
		rep, err = timedRun(cfg)
	}
	if err != nil {
		return err
	}
	return rep.printJSON()
}

// commit names the source revision, or "unknown" outside a git
// checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
