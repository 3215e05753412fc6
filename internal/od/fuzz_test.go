package od

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/knn"
	"repro/internal/subspace"
	"repro/internal/vector"
	"repro/internal/xtree"
)

// fuzzDim and the fixed dataset keep every fuzz execution cheap; the
// fuzzer's freedom is in the subspace pair and the query point.
const fuzzDim = 8

func fuzzEvaluator(t testing.TB) *Evaluator {
	t.Helper()
	ds, err := vector.FromRows(randomRows(42, 120, fuzzDim))
	if err != nil {
		t.Fatal(err)
	}
	ls, err := knn.NewLinear(ds, vector.L2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ds, ls, vector.L2, 5, NormNone)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// FuzzODMonotonicity fuzzes the paper's Theorem 1 — the property the
// whole pruning lattice rests on: for any point p and subspaces
// s1 ⊆ s2, OD(p, s1) ≤ OD(p, s2) under un-normalized L2. The fuzzer
// picks two arbitrary masks (intersection/union give the ⊆ pair) and
// a query point, either a dataset row or a synthesised external one.
func FuzzODMonotonicity(f *testing.F) {
	f.Add(uint32(0b0011), uint32(0b0110), int64(1), true)
	f.Add(uint32(0b1), uint32(0xff), int64(7), false)
	f.Add(uint32(0b10100), uint32(0b00111), int64(99), true)
	e := fuzzEvaluator(f)
	full := subspace.Full(fuzzDim)
	f.Fuzz(func(t *testing.T, a, b uint32, pointSeed int64, member bool) {
		ma := subspace.Mask(a) & full
		mb := subspace.Mask(b) & full
		sub := ma & mb // ⊆ both
		sup := ma | mb // ⊇ both
		if sup.IsEmpty() {
			t.Skip("empty pair")
		}
		var point []float64
		exclude := -1
		if member {
			idx := int(uint64(pointSeed) % uint64(e.Dataset().N()))
			point = e.Dataset().Point(idx)
			exclude = idx
		} else {
			rng := rand.New(rand.NewSource(pointSeed))
			point = make([]float64, fuzzDim)
			for j := range point {
				point[j] = rng.NormFloat64() * 3
			}
		}
		odSup := e.OD(point, sup, exclude)
		for _, lower := range []subspace.Mask{sub, ma, mb} {
			if lower.IsEmpty() {
				continue
			}
			// Same 1e-9 floating-point slack as TestODMonotonicity.
			if odLow := e.OD(point, lower, exclude); odLow > odSup+1e-9 {
				t.Fatalf("monotonicity violated: OD(%v) = %v > OD(%v) = %v",
					lower, odLow, sup, odSup)
			}
		}
		// The shared-cache path must agree bit-for-bit with the direct
		// evaluator on the same probes.
		q := e.NewSharedQuery(point, exclude, NewSharedCache(0))
		if q.OD(sup) != odSup {
			t.Fatal("shared query diverged from direct evaluation")
		}
	})
}

// FuzzODDecision is the differential test of the threshold decision:
// for a random dataset, point, subspace, k and metric, and on both the
// linear scan and the X-tree, Evaluator.Exceeds(T) must equal
// OD >= T computed by the plain linear k-NN oracle, bit for bit. T is
// the exact OD, its floating-point neighbours on either side, and
// arbitrary values, so the early exits are tested right at the
// boundary. Grid-rounded coordinates (odd dataSeed) add distance ties.
func FuzzODDecision(f *testing.F) {
	f.Add(int64(1), uint16(120), uint8(6), uint8(5), uint32(0b101101), uint8(0), true, int64(3), 2.5)
	f.Add(int64(2), uint16(40), uint8(3), uint8(1), uint32(0b111), uint8(1), false, int64(8), 0.0)
	f.Add(int64(7), uint16(300), uint8(8), uint8(8), uint32(0xff), uint8(2), true, int64(5), -1.0)
	f.Add(int64(9), uint16(9), uint8(2), uint8(7), uint32(0b10), uint8(0), false, int64(1), 1e9)
	f.Fuzz(func(t *testing.T, dataSeed int64, n uint16, d, k uint8, mask uint32, metricSel uint8, member bool, pointSeed int64, tRand float64) {
		dim := 1 + int(d)%8
		kk := 1 + int(k)%8
		rows := 2 + kk + int(n)%300
		metric := []vector.Metric{vector.L1, vector.L2, vector.LInf}[int(metricSel)%3]
		s := subspace.Mask(mask) & subspace.Full(dim)
		if s.IsEmpty() {
			s = subspace.Full(dim)
		}

		rng := rand.New(rand.NewSource(dataSeed))
		data := make([][]float64, rows)
		for i := range data {
			data[i] = make([]float64, dim)
			for j := range data[i] {
				v := rng.NormFloat64() * 2
				if dataSeed%2 != 0 {
					v = math.Round(v)
				}
				data[i][j] = v
			}
		}
		ds, err := vector.FromRows(data)
		if err != nil {
			t.Fatal(err)
		}
		var point []float64
		exclude := -1
		if member {
			exclude = int(uint64(pointSeed) % uint64(rows))
			point = ds.Point(exclude)
		} else {
			prng := rand.New(rand.NewSource(pointSeed))
			point = make([]float64, dim)
			for j := range point {
				point[j] = prng.NormFloat64() * 3
			}
		}

		ls, err := knn.NewLinear(ds, metric)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewEvaluator(ds, ls, metric, kk, NormNone)
		if err != nil {
			t.Fatal(err)
		}
		want := oracle.OD(point, s, exclude)

		tree, err := xtree.Build(ds, metric, xtree.Config{MaxEntries: 4})
		if err != nil {
			t.Fatal(err)
		}
		ls2, err := knn.NewLinear(ds, metric)
		if err != nil {
			t.Fatal(err)
		}
		backends := []struct {
			name     string
			searcher knn.Searcher
		}{{"linear", ls2}, {"xtree", xtree.NewSearcher(tree)}}
		thresholds := []float64{
			want,
			math.Nextafter(want, math.Inf(-1)),
			math.Nextafter(want, math.Inf(1)),
			tRand,
			want * 0.5,
			want * 2,
		}
		for _, b := range backends {
			e, err := NewEvaluator(ds, b.searcher, metric, kk, NormNone)
			if err != nil {
				t.Fatal(err)
			}
			for _, T := range thresholds {
				if got := e.Exceeds(point, s, exclude, T); got != (want >= T) {
					t.Fatalf("%s %v k=%d s=%v exclude=%d: Exceeds(T=%v) = %v, OD = %v",
						b.name, metric, kk, s, exclude, T, got, want)
				}
			}
		}
	})
}
