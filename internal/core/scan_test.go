package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/subspace"
)

func TestScanAllFindsPlantedOutliers(t *testing.T) {
	planted := subspace.New(0, 2)
	ds := plantedDataset(t, 51, 90, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.97, SampleSize: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := m.ScanAll(context.Background(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("scan found nothing")
	}
	// The planted point (index 0) must be among the hits.
	found := false
	for _, h := range hits {
		if h.Index == 0 {
			found = true
			if len(h.Minimal) == 0 || h.OutlyingCount == 0 {
				t.Fatalf("hit 0 has empty results: %+v", h)
			}
			if h.FullSpaceOD <= 0 {
				t.Fatalf("hit 0 severity: %v", h.FullSpaceOD)
			}
		}
	}
	if !found {
		t.Fatalf("planted point missing from %d hits", len(hits))
	}
	// Default order: ascending index.
	for i := 1; i < len(hits); i++ {
		if hits[i-1].Index >= hits[i].Index {
			t.Fatal("hits not in index order")
		}
	}
}

func TestScanAllSeverityOrderAndLimit(t *testing.T) {
	planted := subspace.New(1)
	ds := plantedDataset(t, 53, 90, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hits, err := m.ScanAll(context.Background(), ScanOptions{SortBySeverity: true, MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) > 3 {
		t.Fatalf("limit ignored: %d hits", len(hits))
	}
	for i := 1; i < len(hits); i++ {
		if hits[i-1].FullSpaceOD < hits[i].FullSpaceOD {
			t.Fatal("hits not by descending severity")
		}
	}
	// The single extreme planted point must rank first.
	if len(hits) > 0 && hits[0].Index != 0 {
		t.Fatalf("most severe hit = %d, want 0", hits[0].Index)
	}
}

func TestScanAllValidation(t *testing.T) {
	ds := plantedDataset(t, 55, 40, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1})
	for _, workers := range []int{1, 2} {
		if _, err := m.ScanAll(context.Background(), ScanOptions{MaxResults: -1, Workers: workers}); err == nil {
			t.Fatalf("workers=%d: negative MaxResults accepted", workers)
		}
	}
}

func TestScanAllHugeThresholdEmpty(t *testing.T) {
	ds := plantedDataset(t, 57, 40, 3, subspace.New(0))
	m, _ := NewMiner(ds, Config{K: 3, T: 1e15, Seed: 1})
	hits, err := m.ScanAll(context.Background(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Fatalf("huge threshold produced %d hits", len(hits))
	}
}

func TestScanAllParallelMatchesSequential(t *testing.T) {
	planted := subspace.New(0, 2)
	ds := plantedDataset(t, 61, 150, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.95, SampleSize: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := m.ScanAll(context.Background(), ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 7} {
		par, err := m.ScanAll(context.Background(), ScanOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d hits vs %d sequential", workers, len(par), len(seq))
		}
		for i := range par {
			if par[i].Index != seq[i].Index ||
				par[i].OutlyingCount != seq[i].OutlyingCount ||
				par[i].FullSpaceOD != seq[i].FullSpaceOD ||
				!masksEqual(par[i].Minimal, seq[i].Minimal) {
				t.Fatalf("workers=%d hit %d differs:\n par %+v\n seq %+v",
					workers, i, par[i], seq[i])
			}
		}
	}
}

func TestScanAllParallelXTreeBackend(t *testing.T) {
	planted := subspace.New(1)
	ds := plantedDataset(t, 63, 200, 4, planted)
	m, err := NewMiner(ds, Config{K: 4, T: 8, Backend: BackendXTree, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	par, err := m.ScanAll(context.Background(), ScanOptions{SortBySeverity: true, MaxResults: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := m.ScanAll(context.Background(), ScanOptions{SortBySeverity: true, MaxResults: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel %d vs sequential %d", len(par), len(seq))
	}
	for i := range par {
		if par[i].Index != seq[i].Index {
			t.Fatalf("hit %d: %d vs %d", i, par[i].Index, seq[i].Index)
		}
	}
}

// midPointScanMiner builds a miner whose per-point search is a full
// 2^d-1 lattice sweep: an absurd absolute threshold means nothing is
// ever an outlier, so upward pruning never fires and (bottom-up)
// every subspace of every point is evaluated — 16383 OD evaluations
// per point at d = 14.
func midPointScanMiner(t *testing.T) *Miner {
	t.Helper()
	ds := plantedDataset(t, 91, 60, 14, subspace.New(0))
	m, err := NewMiner(ds, Config{K: 3, T: 1e18, Policy: PolicyBottomUp, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	return m
}

// ScanAll must notice cancellation *inside* a point's subspace search,
// not only at point boundaries. The countdown context expires after a
// handful of checks — far fewer than one point's sweep makes — so a
// single-worker scan that reports even one finished point before
// cancelling did not check mid-point.
func TestScanAllContextCancelsMidPoint(t *testing.T) {
	m := midPointScanMiner(t)
	ctx := newCountdownCtx(8)
	finished := 0
	_, err := m.ScanAll(ctx, ScanOptions{Workers: 1, OnProgress: func(done, _ int) { finished = done }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished != 0 {
		t.Fatalf("scan finished %d point(s) before cancelling — cancellation was not mid-point", finished)
	}
}

func TestScanAllContextPreCancelled(t *testing.T) {
	m := midPointScanMiner(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	finished := 0
	_, err := m.ScanAll(ctx, ScanOptions{Workers: 1, OnProgress: func(done, _ int) { finished = done }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if finished != 0 {
		t.Fatalf("pre-cancelled scan still finished %d point(s)", finished)
	}
}

func TestScanAllParallelContextCancelsMidPoint(t *testing.T) {
	m := midPointScanMiner(t)
	ctx := newCountdownCtx(8)
	start := time.Now()
	if _, err := m.ScanAll(ctx, ScanOptions{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 8 countdown checks cover well under one point's sweep per
	// worker; finishing even one full point would take far longer than
	// this generous bound.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancelled parallel scan took %v", elapsed)
	}
}

// Single-worker scans report progress in strict order: 1..n, each
// with the dataset total.
func TestScanProgressSequential(t *testing.T) {
	ds := plantedDataset(t, 67, 50, 3, subspace.New(0))
	m, err := NewMiner(ds, Config{K: 3, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls [][2]int
	_, err = m.ScanAll(context.Background(), ScanOptions{
		Workers:    1,
		OnProgress: func(done, total int) { calls = append(calls, [2]int{done, total}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != ds.N() {
		t.Fatalf("%d progress calls for %d points", len(calls), ds.N())
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != ds.N() {
			t.Fatalf("call %d = %d/%d, want %d/%d", i, c[0], c[1], i+1, ds.N())
		}
	}
}

// Parallel scans report each done value in 1..n exactly once (from
// any worker, in any delivery order) with a fixed total.
func TestScanProgressParallelCoversEveryPoint(t *testing.T) {
	ds := plantedDataset(t, 69, 80, 4, subspace.New(0, 1))
	m, err := NewMiner(ds, Config{K: 4, TQuantile: 0.92, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	_, err = m.ScanAll(context.Background(), ScanOptions{
		Workers: 4,
		OnProgress: func(done, total int) {
			if total != ds.N() {
				t.Errorf("total = %d, want %d", total, ds.N())
			}
			mu.Lock()
			seen[done]++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != ds.N() {
		t.Fatalf("saw %d distinct done values for %d points", len(seen), ds.N())
	}
	for v := 1; v <= ds.N(); v++ {
		if seen[v] != 1 {
			t.Fatalf("done value %d reported %d times", v, seen[v])
		}
	}
}

// A cancelled scan must not report progress for points it never
// evaluated.
func TestScanProgressStopsOnCancel(t *testing.T) {
	m := midPointScanMiner(t)
	ctx := newCountdownCtx(8)
	var mu sync.Mutex
	max := 0
	_, err := m.ScanAll(ctx, ScanOptions{
		Workers: 2,
		OnProgress: func(done, total int) {
			mu.Lock()
			if done > max {
				max = done
			}
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := m.Dataset().N(); max >= n {
		t.Fatalf("cancelled scan reported full progress %d/%d", max, n)
	}
}
