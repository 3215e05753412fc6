// Credit-card fraud triage — the very first application the paper's
// introduction names ("detection of credit card frauds"). A stream
// of transaction feature vectors is mined two ways:
//
//  1. batch: ScanAll sweeps the history and surfaces the accounts
//     whose behaviour is outlying in *some* feature subspace, ranked
//     by severity;
//  2. online: each incoming transaction is checked as an external
//     query point — the minimal outlying subspaces name the feature
//     combination that makes it suspicious (amount alone? amount ×
//     hour? merchant-distance × frequency?), which is what a fraud
//     analyst acts on.
//
// Run: go run ./examples/fraud
//
// The online mode here is exactly what cmd/hosserve productionises:
// POST each transaction vector to /query on a long-lived service
// with a result cache and live stats (see README.md).
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"

	hosminer "repro"
)

func main() {
	ds := transactionHistory(800, 5)
	m, err := hosminer.New(ds, hosminer.Config{
		K: 6, TQuantile: 0.985, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("history: %d transactions x %d features (%s); T = %.3f\n\n",
		ds.N(), ds.Dim(), strings.Join(ds.Columns(), ", "), m.Threshold())

	// --- 1. batch sweep over the history ---------------------------
	hits, err := m.ScanAll(context.Background(), hosminer.ScanOptions{SortBySeverity: true, MaxResults: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch sweep: %d suspicious transactions, top %d:\n", len(hits), len(hits))
	for _, h := range hits {
		fmt.Printf("  txn #%-4d severity %.2f — suspicious feature combos: %s\n",
			h.Index, h.FullSpaceOD, describeAll(ds, h.Minimal, 3))
	}

	// --- 2. online checks of incoming transactions -----------------
	fmt.Println("\nonline checks:")
	incoming := map[string][]float64{
		"ordinary purchase":       {42, 14, 2.1, 3, 0.4},
		"huge amount, odd hour":   {2600, 3.5, 2.0, 3, 0.5},
		"far-away burst of spend": {180, 15, 310, 14, 0.5},
	}
	for _, name := range []string{"ordinary purchase", "huge amount, odd hour", "far-away burst of spend"} {
		res, err := m.OutlyingSubspaces(incoming[name])
		if err != nil {
			log.Fatal(err)
		}
		if !res.IsOutlierAnywhere {
			fmt.Printf("  %-24s -> clean\n", name)
			continue
		}
		fmt.Printf("  %-24s -> FLAG: %s\n", name, describeAll(ds, res.Minimal, 3))
	}
}

// transactionHistory synthesises plausible card activity: amount,
// hour-of-day, merchant distance (km), txns-per-day, online ratio.
func transactionHistory(n, d int) *hosminer.Dataset {
	rng := rand.New(rand.NewSource(99))
	rows := make([][]float64, n)
	for i := range rows {
		amount := 15 + rng.ExpFloat64()*45 // most purchases small
		hour := 9 + rng.NormFloat64()*3.5  // daytime activity
		if hour < 0 {
			hour += 24
		}
		dist := rng.ExpFloat64() * 4 // near home
		perDay := 1 + rng.ExpFloat64()*2.5
		online := rng.Float64() * 0.8
		rows[i] = []float64{amount, hour, dist, perDay, online}
	}
	ds, err := hosminer.FromRows(rows)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.SetColumns([]string{"amount", "hour", "distanceKm", "txnsPerDay", "onlineRatio"}); err != nil {
		log.Fatal(err)
	}
	return ds
}

func describeAll(ds *hosminer.Dataset, subs []hosminer.Subspace, max int) string {
	var parts []string
	for i, s := range subs {
		if i >= max {
			parts = append(parts, fmt.Sprintf("+%d more", len(subs)-max))
			break
		}
		var names []string
		s.EachDim(func(dim int) { names = append(names, ds.ColumnName(dim)) })
		parts = append(parts, strings.Join(names, "×"))
	}
	return strings.Join(parts, "; ")
}
