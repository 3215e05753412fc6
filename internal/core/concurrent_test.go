package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
)

func newTestMiner(t *testing.T, cfg Config) *Miner {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 200, D: 6, NumOutliers: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQueryWithRequiresPreprocess(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryWith(eval, m.Dataset().Point(0), 0); !errors.Is(err, ErrNotPreprocessed) {
		t.Fatalf("want ErrNotPreprocessed, got %v", err)
	}
}

func TestQueryWithMatchesSequentialQuery(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 25; idx++ {
		want, err := m.OutlyingSubspacesOfPoint(idx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.QueryPointWith(eval, idx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Outlying, want.Outlying) {
			t.Fatalf("point %d: outlying sets differ: %v vs %v", idx, got.Outlying, want.Outlying)
		}
		if !reflect.DeepEqual(got.Minimal, want.Minimal) {
			t.Fatalf("point %d: minimal sets differ: %v vs %v", idx, got.Minimal, want.Minimal)
		}
		if got.Threshold != want.Threshold {
			t.Fatalf("point %d: thresholds differ: %v vs %v", idx, got.Threshold, want.Threshold)
		}
	}
}

func TestQueryWithValidation(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	eval, err := m.NewWorkerEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.QueryWith(nil, m.Dataset().Point(0), 0); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	if _, err := m.QueryWith(eval, []float64{1, 2}, -1); err == nil {
		t.Fatal("wrong-dimension point accepted")
	}
	if _, err := m.QueryWith(eval, m.Dataset().Point(0), m.Dataset().N()); err == nil {
		t.Fatal("out-of-range exclude accepted")
	}
	if _, err := m.QueryPointWith(eval, -1); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestQueryWithConcurrent hammers QueryWith from many goroutines with
// pooled evaluators; meant to run under -race. Every goroutine must
// reproduce the sequential answer set.
func TestQueryWithConcurrent(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	const points = 20
	want := make([]*QueryResult, points)
	for i := range want {
		r, err := m.OutlyingSubspacesOfPoint(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	pool := m.NewEvaluatorPool()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < points; i++ {
				eval, err := pool.Get()
				if err != nil {
					errCh <- err
					return
				}
				got, err := m.QueryPointWith(eval, i)
				if err != nil {
					pool.Put(eval)
					errCh <- err
					return
				}
				// The result lives in the evaluator's scratch: read it
				// before handing the evaluator back to the pool.
				match := reflect.DeepEqual(got.Outlying, want[i].Outlying)
				pool.Put(eval)
				if !match {
					errCh <- errors.New("concurrent result diverged from sequential")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	gets, builds := pool.Stats()
	if gets < 16*points {
		t.Fatalf("pool gets = %d, want ≥ %d", gets, 16*points)
	}
	if builds > gets {
		t.Fatalf("pool builds %d > gets %d", builds, gets)
	}
}

// TestScanAllParallelSingleWorkerConcurrent runs two Workers=1 scans
// at once; meant for -race. ScanAll must use private state even at
// one worker — a sequential loop over the Miner's own evaluator would
// race here.
func TestScanAllParallelSingleWorkerConcurrent(t *testing.T) {
	m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1})
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	want, err := m.ScanAll(context.Background(), ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := m.ScanAll(context.Background(), ScanOptions{Workers: 1})
			if err != nil {
				errCh <- err
				return
			}
			if len(got) != len(want) {
				errCh <- fmt.Errorf("workers=1 scan found %d hits, default fan-out found %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
