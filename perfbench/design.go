package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

//go:embed design.json
var designJSON []byte

// Design is design.json: the fixed parameters of every workload. It is
// the single source of the rates, ladders and limits perfbench runs.
type Design struct {
	HeldOutSeed int64 `json:"held_out_seed"`
	// Connections is the load generator's connection count, capped at
	// the number of CPUs the benchmark may use.
	Connections int `json:"connections"`
	// LagLimitShare marks a run invalid when the generator's own p99
	// lag exceeds this share of the median service time.
	LagLimitShare float64 `json:"lag_limit_share"`
	Miner         struct {
		K       int     `json:"k"`
		TQ      float64 `json:"tq"`
		Samples int     `json:"samples"`
		Backend string  `json:"backend"`
	} `json:"miner"`
	Workloads []Workload `json:"workloads"`
}

// Workload is one traffic mix.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Kind selects the request stream: rows, explain, hot or ingest.
	Kind string `json:"kind"`
	N    int    `json:"n"`
	D    int    `json:"d"`
	// Rate is the fixed offered query rate (req/s) of the timed phase.
	Rate       float64 `json:"rate"`
	P99LimitMs float64 `json:"p99_limit_ms"`
	// Pool is the explain workload's distinct-point count, cycled in a
	// fixed order; it exceeds the server's LRU so every request misses.
	Pool    int     `json:"pool"`
	HotRows int     `json:"hot_rows"`
	ZipfS   float64 `json:"zipf_s"`
	// Ingest mix: appends per second at the base rate, rows per append,
	// a keep_last delete after every DeletesEvery appends.
	AppendsPerS      float64 `json:"appends_per_s"`
	AppendRows       int     `json:"append_rows"`
	DeletesEvery     int     `json:"deletes_every"`
	KeepLast         int     `json:"keep_last"`
	AppendP90LimitMs float64 `json:"append_p90_limit_ms"`
	// Setups is how many times a run starts hosserve to time set-up;
	// setup_s is their median. A 0.1 s set-up takes more starts than a
	// 4 s one to read the same from run to run.
	Setups  int     `json:"setups"`
	WarmupS float64 `json:"warmup_s"`
	Ladder  Ladder  `json:"ladder"`
	// Replay is how many requests of the timed phase the traced run
	// replays in process (0 = all of them).
	Replay int `json:"replay"`
}

// Ladder is a fixed geometric ladder of absolute offered rates (a rate
// multiplier of the whole mix for ingest). Capacity is the highest rung
// that meets the workload's limits, found by bisection.
type Ladder struct {
	Min    float64 `json:"min"`
	Step   float64 `json:"step"`
	Steps  int     `json:"steps"`
	ProbeS float64 `json:"probe_s"`
}

// Rung returns the ladder's i-th value.
func (l Ladder) Rung(i int) float64 { return l.Min * math.Pow(l.Step, float64(i)) }

func loadDesign() (*Design, error) {
	var d Design
	if err := json.Unmarshal(designJSON, &d); err != nil {
		return nil, fmt.Errorf("design.json: %w", err)
	}
	for _, w := range d.Workloads {
		if w.Ladder.Step <= 1 || w.Ladder.Step > 1.05 || w.Ladder.Steps < 2 {
			return nil, fmt.Errorf("design.json: workload %s: ladder steps must be geometric and at most 5%% apart", w.Name)
		}
	}
	return &d, nil
}

// workload returns the named workload.
func (d *Design) workload(name string) (*Workload, error) {
	for i := range d.Workloads {
		if d.Workloads[i].Name == name {
			return &d.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
