package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// phaseBytes renders a stretch of a workload's request stream — every
// item's intended time and wire bytes — for comparison.
func phaseBytes(t *testing.T, w *Workload, seed int64) ([]byte, []byte) {
	t.Helper()
	in, err := makeInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(w, in.DS, seed)
	var b bytes.Buffer
	for _, phase := range [][]Item{s.Phase(baseScale(w), time.Second), s.Phase(w.Ladder.Rung(3), time.Second)} {
		for _, it := range phase {
			b.WriteString(it.At.String())
			b.Write(it.Req.wire)
		}
	}
	return in.CSV, b.Bytes()
}

func TestSameSeedGivesIdenticalInputs(t *testing.T) {
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Workloads {
		w := &d.Workloads[i]
		csv1, req1 := phaseBytes(t, w, 11)
		csv2, req2 := phaseBytes(t, w, 11)
		if !bytes.Equal(csv1, csv2) {
			t.Errorf("%s: same seed, different CSV", w.Name)
		}
		if !bytes.Equal(req1, req2) {
			t.Errorf("%s: same seed, different request stream", w.Name)
		}
	}
}

func TestDifferentSeedGivesDifferentInputs(t *testing.T) {
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Workloads {
		w := &d.Workloads[i]
		csv1, req1 := phaseBytes(t, w, 11)
		csv2, req2 := phaseBytes(t, w, 12)
		if bytes.Equal(csv1, csv2) {
			t.Errorf("%s: different seeds, same CSV", w.Name)
		}
		if bytes.Equal(req1, req2) {
			t.Errorf("%s: different seeds, same request stream", w.Name)
		}
	}
}

func TestDesignNamesAHeldOutSeed(t *testing.T) {
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	if d.HeldOutSeed == 0 {
		t.Fatal("design.json names no held-out seed")
	}
}

// TestBenchmarkJSONMatchesDesign keeps the repository's BENCHMARK.json
// workload list in step with design.json, which perfbench runs.
// design.json may hold workloads the benchmark does not gate on.
func TestBenchmarkJSONMatchesDesign(t *testing.T) {
	d, err := loadDesign()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bench.Workloads {
		w, err := d.workload(bw.Name)
		if err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		} else if bw.Why != w.Why {
			t.Errorf("%s: BENCHMARK.json why %q, design.json %q", bw.Name, bw.Why, w.Why)
		}
	}
}
