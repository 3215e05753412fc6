package od

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
)

func newEval(t *testing.T, rows [][]float64, k int, norm Normalization) *Evaluator {
	t.Helper()
	ds, err := vector.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ds, ls, vector.L2, k, norm)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorValidation(t *testing.T) {
	ds, _ := vector.FromRows([][]float64{{0}, {1}, {2}})
	ls, _ := knn.NewLinear(ds, vector.L2)
	cases := []struct {
		name string
		fn   func() error
	}{
		{"nil dataset", func() error { _, err := NewEvaluator(nil, ls, vector.L2, 1, NormNone); return err }},
		{"nil searcher", func() error { _, err := NewEvaluator(ds, nil, vector.L2, 1, NormNone); return err }},
		{"bad metric", func() error { _, err := NewEvaluator(ds, ls, vector.Metric(7), 1, NormNone); return err }},
		{"k=0", func() error { _, err := NewEvaluator(ds, ls, vector.L2, 0, NormNone); return err }},
		{"k too large", func() error { _, err := NewEvaluator(ds, ls, vector.L2, 3, NormNone); return err }},
		{"bad norm", func() error { _, err := NewEvaluator(ds, ls, vector.L2, 1, Normalization(9)); return err }},
	}
	for _, c := range cases {
		if c.fn() == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if _, err := NewEvaluator(ds, ls, vector.L2, 2, NormNone); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestODHandComputed(t *testing.T) {
	// Points on a line; k=2. OD of point 0 in [0] = 1 + 2 = 3.
	e := newEval(t, [][]float64{{0, 9}, {1, 9}, {2, 9}, {10, 9}}, 2, NormNone)
	if got := e.ODOfPoint(0, subspace.New(0)); math.Abs(got-3) > 1e-12 {
		t.Fatalf("OD = %v, want 3", got)
	}
	// Point 3 is far: neighbours at 8 and 9 → OD = 17.
	if got := e.ODOfPoint(3, subspace.New(0)); math.Abs(got-17) > 1e-12 {
		t.Fatalf("OD = %v, want 17", got)
	}
	// In dim 1, all identical → OD = 0 everywhere.
	for i := 0; i < 4; i++ {
		if got := e.ODOfPoint(i, subspace.New(1)); got != 0 {
			t.Fatalf("OD in constant dim = %v", got)
		}
	}
}

func TestODEmptySubspace(t *testing.T) {
	e := newEval(t, [][]float64{{0}, {1}}, 1, NormNone)
	if got := e.OD([]float64{0}, subspace.Empty, -1); got != 0 {
		t.Fatalf("empty subspace OD = %v", got)
	}
}

func TestODExternalPoint(t *testing.T) {
	e := newEval(t, [][]float64{{0}, {1}, {2}}, 2, NormNone)
	// External point at 10: neighbours 2 and 1 → OD = 8 + 9 = 17.
	if got := e.OD([]float64{10}, subspace.New(0), -1); math.Abs(got-17) > 1e-12 {
		t.Fatalf("OD = %v, want 17", got)
	}
}

// TestODMonotonicity is the paper's central property (§2): for any
// point, OD_s1(p) ≥ OD_s2(p) whenever s1 ⊇ s2.
func TestODMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 25+rng.Intn(30), 2+rng.Intn(5)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.NormFloat64()
			}
		}
		ds, _ := vector.FromRows(rows)
		metric := []vector.Metric{vector.L2, vector.L1, vector.LInf}[rng.Intn(3)]
		ls, _ := knn.NewLinear(ds, metric)
		e, err := NewEvaluator(ds, ls, metric, 1+rng.Intn(5), NormNone)
		if err != nil {
			return false
		}
		idx := rng.Intn(n)
		sub := subspace.Mask(rng.Uint32()) & subspace.Full(d)
		if sub.IsEmpty() {
			sub = subspace.New(rng.Intn(d))
		}
		sup := sub | (subspace.Mask(rng.Uint32()) & subspace.Full(d))
		return e.ODOfPoint(idx, sup) >= e.ODOfPoint(idx, sub)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestNormDimRemovesDimBias(t *testing.T) {
	// A regular grid: with NormDim the OD of a central point should
	// stay roughly flat as dims are added, instead of growing.
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, 200)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	ds, _ := vector.FromRows(rows)
	ls, _ := knn.NewLinear(ds, vector.L2)
	raw, _ := NewEvaluator(ds, ls, vector.L2, 5, NormNone)
	norm, _ := NewEvaluator(ds, ls, vector.L2, 5, NormDim)

	rawGrowth := raw.ODOfPoint(0, subspace.Full(4)) / raw.ODOfPoint(0, subspace.New(0))
	normGrowth := norm.ODOfPoint(0, subspace.Full(4)) / norm.ODOfPoint(0, subspace.New(0))
	if normGrowth >= rawGrowth {
		t.Fatalf("NormDim growth %v should be below raw growth %v", normGrowth, rawGrowth)
	}
}

func TestNormalizationString(t *testing.T) {
	if NormNone.String() != "none" || NormDim.String() != "dim" {
		t.Fatal("names")
	}
	if Normalization(9).String() == "" {
		t.Fatal("unknown name empty")
	}
}

func TestFullSpaceODs(t *testing.T) {
	e := newEval(t, [][]float64{{0, 0}, {1, 0}, {0, 1}, {50, 50}}, 2, NormNone)
	ods := e.FullSpaceODs()
	if len(ods) != 4 {
		t.Fatalf("len = %d", len(ods))
	}
	// The planted far point must have the largest OD.
	for i := 0; i < 3; i++ {
		if ods[3] <= ods[i] {
			t.Fatalf("outlier OD %v not above inlier OD %v", ods[3], ods[i])
		}
	}
}

func TestQueryCache(t *testing.T) {
	e := newEval(t, [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, 2, NormNone)
	q := e.NewQueryForPoint(1)
	s := subspace.New(0, 1)
	v1 := q.OD(s)
	evalsAfterFirst := e.Evaluations()
	v2 := q.OD(s)
	if v1 != v2 {
		t.Fatalf("cache returned different value: %v vs %v", v1, v2)
	}
	if e.Evaluations() != evalsAfterFirst {
		t.Fatal("cache miss on repeated subspace")
	}
	hits, misses := q.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("cache stats = (%d,%d), want (1,1)", hits, misses)
	}
}

func TestQueryPointIsolation(t *testing.T) {
	e := newEval(t, [][]float64{{0}, {1}, {2}}, 1, NormNone)
	p := []float64{5}
	q := e.NewQuery(p, -1)
	p[0] = 999 // mutate the caller's slice
	if got := q.Point()[0]; got != 5 {
		t.Fatalf("query point not isolated: %v", got)
	}
	// Returned copy is also isolated.
	cp := q.Point()
	cp[0] = -1
	if q.Point()[0] != 5 {
		t.Fatal("Point() leaked internal slice")
	}
}

func TestQueryMatchesEvaluator(t *testing.T) {
	e := newEval(t, [][]float64{{0, 5}, {1, 4}, {2, 3}, {9, 9}}, 2, NormNone)
	q := e.NewQueryForPoint(3)
	for _, s := range subspace.All(2) {
		if got, want := q.OD(s), e.ODOfPoint(3, s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("s=%v: query OD %v, evaluator OD %v", s, got, want)
		}
	}
}

// A cached verdict answers every later threshold it bounds (OD ≥ T
// settles any lower threshold, OD < T any higher one) and nothing
// else; OD never returns a verdict but recomputes and keeps the value.
func TestQueryExceedsCachesVerdicts(t *testing.T) {
	e := newEval(t, randomRows(4, 50, 5), 3, NormNone)
	s := subspace.Full(5)
	v := e.ODOfPoint(3, s)
	q := e.NewQueryForPoint(3)
	steps := []struct {
		T          float64
		want       bool
		wantMisses int64
	}{
		{v, true, 1},      // computed: OD ≥ v
		{v / 2, true, 1},  // settled by OD ≥ v
		{2 * v, false, 2}, // not settled: computed, OD < 2v
		{3 * v, false, 2}, // settled by OD < 2v
		{v, true, 3},      // OD < 2v does not settle v: computed
	}
	for i, st := range steps {
		if got := q.Exceeds(s, st.T); got != st.want {
			t.Fatalf("step %d: Exceeds(%v) = %v, want %v", i, st.T, got, st.want)
		}
		if _, misses := q.CacheStats(); misses != st.wantMisses {
			t.Fatalf("step %d: %d computations, want %d", i, misses, st.wantMisses)
		}
	}
	if got := q.OD(s); got != v {
		t.Fatalf("OD after verdicts = %v, want %v", got, v)
	}
	if got := q.OD(s); got != v {
		t.Fatalf("cached OD = %v, want %v", got, v)
	}
	if hits, misses := q.CacheStats(); hits != 3 || misses != 4 {
		t.Fatalf("cache stats hits=%d misses=%d, want 3 and 4", hits, misses)
	}
	if !q.Exceeds(s, v) || q.Exceeds(s, math.Nextafter(v, math.Inf(1))) {
		t.Fatal("exact entry decided a threshold wrongly")
	}
}
