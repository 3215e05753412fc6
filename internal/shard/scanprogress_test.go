// Progress reporting over the sharded scan path. This lives in an
// external test package so it can drive core.Miner.ScanAll —
// the consumer of shard.Engine — over a scatter-gather miner: the
// async job subsystem reports scan progress through exactly this
// route, so a sharded dataset must deliver the same complete,
// non-regressing progress stream as a single-index one, and the same
// hits.
package shard_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
)

func TestShardedScanReportsFullProgress(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 120, D: 4, NumOutliers: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(shards int) *core.Miner {
		t.Helper()
		m, err := core.NewMiner(ds, core.Config{
			K: 4, TQuantile: 0.92, Seed: 1,
			Shards: shards, Partitioner: shard.HashPoint,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Preprocess(); err != nil {
			t.Fatal(err)
		}
		return m
	}

	sharded := build(3)
	var mu sync.Mutex
	seen := make(map[int]int)
	hits, err := sharded.ScanAll(context.Background(), core.ScanOptions{
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
	// Every done value in 1..N exactly once: progress is complete and
	// never double-counted, regardless of which shard served a point.
	if len(seen) != ds.N() {
		t.Fatalf("saw %d distinct done values for %d points", len(seen), ds.N())
	}
	for v := 1; v <= ds.N(); v++ {
		if seen[v] != 1 {
			t.Fatalf("done value %d reported %d times", v, seen[v])
		}
	}

	// The progress plumbing must not perturb answers: sharded hits
	// equal the unsharded scan's bit for bit.
	plain, err := build(0).ScanAll(context.Background(), core.ScanOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(plain) {
		t.Fatalf("sharded scan found %d hits, unsharded %d", len(hits), len(plain))
	}
	for i := range hits {
		if hits[i].Index != plain[i].Index ||
			hits[i].OutlyingCount != plain[i].OutlyingCount ||
			hits[i].FullSpaceOD != plain[i].FullSpaceOD {
			t.Fatalf("hit %d diverged: sharded %+v, unsharded %+v", i, hits[i], plain[i])
		}
	}
}
