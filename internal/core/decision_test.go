package core

import (
	"context"
	"testing"

	"repro/internal/od"
	"repro/internal/subspace"
)

// The lattice search asks only OD(p, s) ≥ T, so after it the query's
// cache and the batch's shared cache hold threshold verdicts for most
// subspaces. None may ever surface as an OD value: Query.OD must
// return the bit-exact OD of a fresh evaluator for every subspace, on
// the query that ran the search and on a sibling batch item answered
// from the shared cache.
func TestDecisionSearchNeverLeaksVerdicts(t *testing.T) {
	for _, backend := range []Backend{BackendLinear, BackendXTree} {
		t.Run(backend.String(), func(t *testing.T) {
			m := newTestMiner(t, Config{K: 4, TQuantile: 0.9, Seed: 1, Backend: backend})
			if err := m.Preprocess(); err != nil {
				t.Fatal(err)
			}
			d := m.Dataset().Dim()
			fresh, err := m.NewWorkerEvaluator()
			if err != nil {
				t.Fatal(err)
			}
			for _, idx := range []int{0, 1, 2, 50, 120} {
				point := m.Dataset().Point(idx)
				shared := od.NewSharedCache(0)
				searchEval, err := m.NewWorkerEvaluator()
				if err != nil {
					t.Fatal(err)
				}
				q := searchEval.NewSharedQuery(point, idx, shared)
				if _, err := SearchContext(context.Background(), q, d, m.Threshold(), m.Priors(), PolicyTSF, nil); err != nil {
					t.Fatal(err)
				}
				if st := shared.Stats(); st.Entries == 0 {
					t.Fatal("search left nothing in the shared cache")
				}

				siblingEval, err := m.NewWorkerEvaluator()
				if err != nil {
					t.Fatal(err)
				}
				sibling := siblingEval.NewSharedQuery(point, idx, shared)
				if _, err := SearchContext(context.Background(), sibling, d, m.Threshold(), m.Priors(), PolicyTSF, nil); err != nil {
					t.Fatal(err)
				}
				verdictHits := sibling.SharedHits()
				if _, misses := sibling.CacheStats(); verdictHits == 0 || misses != 0 {
					t.Fatalf("row %d: sibling search had %d shared hits and %d misses, want all hits", idx, verdictHits, misses)
				}
				subspace.EachAll(d, func(s subspace.Mask) bool {
					want := fresh.OD(point, s, idx)
					// The sibling reads first, while the shared cache
					// still holds only the search's verdicts.
					if got := sibling.OD(s); got != want {
						t.Fatalf("row %d: sibling query OD(%v) = %v, fresh evaluator %v", idx, s, got, want)
					}
					if got := q.OD(s); got != want {
						t.Fatalf("row %d: searched query OD(%v) = %v, fresh evaluator %v", idx, s, got, want)
					}
					return true
				})
				if hits := sibling.SharedHits() - verdictHits; hits != 0 {
					t.Fatalf("row %d: %d verdict entries were returned as OD values", idx, hits)
				}
			}
		})
	}
}
