package vector

import (
	"math"
	"testing"
)

func TestColumnStatsBasic(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1, 10}, {3, 10}, {5, 10}})
	cs := ds.ColumnStats(0)
	if cs.Min != 1 || cs.Max != 5 {
		t.Fatalf("min/max = %v/%v", cs.Min, cs.Max)
	}
	if math.Abs(cs.Mean-3) > 1e-12 {
		t.Fatalf("mean = %v", cs.Mean)
	}
	wantSd := math.Sqrt((4.0 + 0 + 4.0) / 3.0)
	if math.Abs(cs.StdDev-wantSd) > 1e-12 {
		t.Fatalf("sd = %v, want %v", cs.StdDev, wantSd)
	}
	c1 := ds.ColumnStats(1)
	if c1.StdDev != 0 || c1.Min != 10 || c1.Max != 10 {
		t.Fatalf("constant column stats: %+v", c1)
	}
}

func TestColumnStatsNonFinite(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1}, {math.NaN()}, {3}, {math.Inf(1)}})
	cs := ds.ColumnStats(0)
	if cs.NaNOrInf != 2 || cs.SampleSize != 2 {
		t.Fatalf("non-finite accounting: %+v", cs)
	}
	if cs.Min != 1 || cs.Max != 3 || math.Abs(cs.Mean-2) > 1e-12 {
		t.Fatalf("aggregates should skip non-finite: %+v", cs)
	}
}

func TestColumnStatsAllNonFinite(t *testing.T) {
	ds := mustDataset(t, [][]float64{{math.NaN()}, {math.Inf(-1)}})
	cs := ds.ColumnStats(0)
	if !math.IsNaN(cs.Mean) || !math.IsNaN(cs.Min) {
		t.Fatalf("all-non-finite column should yield NaN aggregates: %+v", cs)
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {1.0 / 3.0, 2},
	}
	for _, c := range cases {
		got, err := Quantile(s, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// input must not be reordered
	if s[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("negative q accepted")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Fatal("q>1 accepted")
	}
	if v, err := Quantile([]float64{7}, 0.3); err != nil || v != 7 {
		t.Fatalf("singleton quantile = %v, %v", v, err)
	}
}

func TestMinMaxNormalize(t *testing.T) {
	ds := mustDataset(t, [][]float64{{0, 5, 7}, {10, 5, 9}, {5, 5, 8}})
	norm, stats := ds.MinMaxNormalize()
	// original untouched
	if ds.Point(0)[0] != 0 || ds.Point(1)[0] != 10 {
		t.Fatal("original mutated")
	}
	for i := 0; i < norm.N(); i++ {
		for j := 0; j < norm.Dim(); j++ {
			v := norm.Point(i)[j]
			if v < 0 || v > 1 {
				t.Fatalf("normalized value %v out of [0,1]", v)
			}
		}
	}
	// constant column becomes 0
	if norm.Point(0)[1] != 0 || norm.Point(2)[1] != 0 {
		t.Fatal("constant column should normalize to 0")
	}
	if norm.Point(1)[0] != 1 || norm.Point(0)[0] != 0 {
		t.Fatal("endpoints should map to 0 and 1")
	}
	// the returned scale information is the raw per-column range
	if stats[0].Min != 0 || stats[0].Max != 10 || stats[2].Min != 7 || stats[2].Max != 9 {
		t.Fatalf("scale stats = %+v", stats)
	}
}

func TestZScoreNormalize(t *testing.T) {
	ds := mustDataset(t, [][]float64{{2, 1}, {4, 1}, {6, 1}})
	norm, _ := ds.ZScoreNormalize()
	cs := norm.ColumnStats(0)
	if math.Abs(cs.Mean) > 1e-12 {
		t.Fatalf("z-scored mean = %v", cs.Mean)
	}
	if math.Abs(cs.StdDev-1) > 1e-12 {
		t.Fatalf("z-scored sd = %v", cs.StdDev)
	}
	if norm.ColumnStats(1).StdDev != 0 {
		t.Fatal("constant column must stay constant")
	}
}

func TestStatsAllColumns(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	all := ds.Stats()
	if len(all) != 3 {
		t.Fatalf("Stats len = %d", len(all))
	}
	if all[2].Max != 6 || all[0].Min != 1 {
		t.Fatalf("Stats content: %+v", all)
	}
}
