package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/snapshot"
)

// writeFixture generates a small planted dataset CSV and returns its
// path.
func writeFixture(t *testing.T) string {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{
		N: 120, D: 4, NumOutliers: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := dataio.SaveFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunQueryByIndex(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-index", "0", "-all"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"minimal outlying subspaces", "search cost", "full outlying set"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunQueryByPoint(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-t", "5", "-point", "99,0,0,0"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "[0]") {
		t.Fatalf("expected dim-0 outlier:\n%s", out.String())
	}
}

func TestRunInlierPoint(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	// Query an inlier row with a very high absolute threshold.
	err := run([]string{"-data", path, "-k", "4", "-t", "1e12", "-index", "50"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "not an outlier in any subspace") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestRunScan(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.97", "-scan", "-top", "3"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "top") || !strings.Contains(out.String(), "OD=") {
		t.Fatalf("scan output:\n%s", out.String())
	}
}

// TestRunScanProgress: -progress must draw the live stderr display up
// to 100% without changing the scan's stdout answer.
func TestRunScanProgress(t *testing.T) {
	path := writeFixture(t)
	var plain, plainErr bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.97", "-scan", "-top", "3"}, &plain, &plainErr); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.97", "-scan", "-top", "3",
		"-progress", "-scan-workers", "2"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != plain.String() {
		t.Fatalf("progress display changed the answer:\n%s\nvs\n%s", out.String(), plain.String())
	}
	se := errBuf.String()
	if !strings.Contains(se, "scanning:") || !strings.Contains(se, "100% (120/120 points)") {
		t.Fatalf("stderr missing progress display:\n%q", se)
	}
	if plainErr.Len() != 0 {
		t.Fatalf("progress printed without -progress:\n%q", plainErr.String())
	}
}

func TestRunNormalizeAndBackends(t *testing.T) {
	path := writeFixture(t)
	for _, backend := range []string{"linear", "xtree", "auto"} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
			"-index", "0", "-normalize", "-backend", backend}, &out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
	}
	for _, policy := range []string{"bottomup", "topdown", "random"} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
			"-index", "0", "-policy", policy}, &out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}

func TestRunSharded(t *testing.T) {
	path := writeFixture(t)
	// The sharded run must print the topology and answer exactly like
	// the unsharded one.
	var ref bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-index", "0"}, &ref, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"roundrobin", "hash"} {
		var out, errBuf bytes.Buffer
		err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
			"-index", "0", "-shards", "3", "-partitioner", part}, &out, &errBuf)
		if err != nil {
			t.Fatalf("%s: %v", part, err)
		}
		if !strings.Contains(out.String(), "sharding: 3 shards ("+part) {
			t.Fatalf("%s: missing topology line:\n%s", part, out.String())
		}
		// Everything after the sharding line must match the reference
		// output after its header line.
		refLines := strings.SplitN(ref.String(), "\n", 2)
		gotLines := strings.SplitN(out.String(), "\n", 3)
		if gotLines[2] != refLines[1] {
			t.Fatalf("%s: sharded answer diverged:\n%s\nvs\n%s", part, gotLines[2], refLines[1])
		}
	}
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95",
		"-index", "0", "-shards", "2", "-partitioner", "zig"}, &out, &errBuf); err == nil {
		t.Fatal("bad -partitioner accepted")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	cases := [][]string{
		{},                            // no -data
		{"-data", "/nonexistent.csv"}, // missing file
		{"-data", path},               // no query
		{"-data", path, "-index", "0", "-point", "1,2,3,4"}, // both
		{"-data", path, "-index", "0"},                      // no threshold
		{"-data", path, "-t", "1", "-point", "1,2"},         // wrong dim
		{"-data", path, "-t", "1", "-point", "a,b,c,d"},     // non-numeric
		{"-data", path, "-t", "1", "-backend", "bogus", "-index", "0"},
		{"-data", path, "-t", "1", "-policy", "bogus", "-index", "0"},
	}
	for i, args := range cases {
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("case %d accepted: %v", i, args)
		}
	}
}

func TestRunBatch(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	// Index 0 is a planted outlier; duplicate it so the shared cache
	// has something to share, and include an out-of-range item to see
	// per-item error reporting.
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-batch", "0, 5, 0, 999"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"#0", "outlying in", "error", "batch: 3 ok, 1 failed", "OD cache:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "hits") {
		t.Fatalf("no cache accounting in output:\n%s", s)
	}
}

func TestRunBatchBadIndex(t *testing.T) {
	path := writeFixture(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-batch", "0,x"}, &out, &errBuf); err == nil {
		t.Fatal("malformed -batch accepted")
	}
}

// TestRunSnapshotSaveAndLoad: -save captures a full snapshot, -load
// restores it (no -t/-tq needed) and answers identically; conflicting
// flags and dataset-only snapshots behave as documented.
func TestRunSnapshotSaveAndLoad(t *testing.T) {
	path := writeFixture(t)
	snapPath := filepath.Join(t.TempDir(), "mined.snap")
	var out1, errBuf bytes.Buffer
	err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-samples", "8",
		"-backend", "xtree", "-index", "0", "-save", snapPath}, &out1, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "saved snapshot") {
		t.Fatalf("stderr: %s", errBuf.String())
	}

	// Warm load: no threshold flags, no -data; identical stdout.
	var out2, errBuf2 bytes.Buffer
	if err := run([]string{"-load", snapPath, "-index", "0"}, &out2, &errBuf2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf2.String(), "restored snapshot") {
		t.Fatalf("stderr: %s", errBuf2.String())
	}
	// Identical answers; the learning-stats line is legitimately absent
	// on the warm path (learning never re-runs), so compare from the
	// results onward.
	pick := func(s string) string {
		idx := strings.Index(s, "minimal outlying")
		if idx < 0 {
			t.Fatalf("no results in output:\n%s", s)
		}
		return s[idx:]
	}
	if pick(out1.String()) != pick(out2.String()) {
		t.Fatalf("snapshot round trip changed answers:\n%s\nvs\n%s", out1.String(), out2.String())
	}

	// Conflicts.
	for _, extra := range [][]string{{"-tq", "0.9"}, {"-t", "5"}, {"-samples", "4"}, {"-normalize"}, {"-data", path}} {
		args := append([]string{"-load", snapPath, "-index", "0"}, extra...)
		var o, e bytes.Buffer
		if err := run(args, &o, &e); err == nil {
			t.Fatalf("flags %v accepted alongside -load of a full snapshot", extra)
		}
	}
	// Missing and corrupt files fail cleanly.
	var o, e bytes.Buffer
	if err := run([]string{"-load", filepath.Join(t.TempDir(), "no.snap"), "-index", "0"}, &o, &e); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestRunDatasetOnlySnapshot: a hosgen-style dataset-only snapshot
// loads like a CSV — miner flags apply — and answers exactly as the
// same data loaded from CSV.
func TestRunDatasetOnlySnapshot(t *testing.T) {
	csvPath := writeFixture(t)
	ds, err := dataio.LoadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.FromDataset("fixture", snapshot.Provenance{Source: csvPath}, ds)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "fixture.snap")
	if err := snapshot.SaveFile(snapPath, s); err != nil {
		t.Fatal(err)
	}
	var fromCSV, fromSnap, errBuf bytes.Buffer
	if err := run([]string{"-data", csvPath, "-k", "4", "-tq", "0.95", "-index", "2"}, &fromCSV, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", snapPath, "-k", "4", "-tq", "0.95", "-index", "2"}, &fromSnap, &errBuf); err != nil {
		t.Fatal(err)
	}
	if fromCSV.String() != fromSnap.String() {
		t.Fatalf("dataset-only snapshot answers differently:\n%s\nvs\n%s", fromCSV.String(), fromSnap.String())
	}
}

// rawRow formats dataset row i of the CSV at path as a -point value,
// in the file's raw units.
func rawRow(t *testing.T, path string, i int) string {
	t.Helper()
	ds, err := dataio.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]string, ds.Dim())
	for j, v := range ds.Point(i) {
		vals[j] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(vals, ",")
}

// TestRunResaveKeepsNormalization: -load of a normalized snapshot
// followed by -save must carry the normalization ranges and the
// provenance into the copy; without them a server restoring the copy
// would compare raw client points with [0,1]-scaled data.
func TestRunResaveKeepsNormalization(t *testing.T) {
	path := writeFixture(t)
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.snap"), filepath.Join(dir, "b.snap")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-normalize", "-index", "0", "-save", a}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load", a, "-index", "0", "-save", b}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	orig, err := snapshot.LoadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := snapshot.LoadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.NormStats) != 4 || !orig.Provenance.Normalized {
		t.Fatalf("original: %d ranges, normalized=%v", len(orig.NormStats), orig.Provenance.Normalized)
	}
	if !reflect.DeepEqual(cp.NormStats, orig.NormStats) || cp.Provenance != orig.Provenance {
		t.Fatalf("copy lost normalization: ranges %v (want %v), provenance %+v (want %+v)",
			cp.NormStats, orig.NormStats, cp.Provenance, orig.Provenance)
	}
}

// TestRunNormalizedPointRescaled mirrors hosserve's
// TestNormalizeRescalesAdHocPoints: a raw-unit copy of an inlier row
// queried against normalized data (-normalize, or -load of a
// normalized snapshot) lands on that row, so it must not be outlying
// in every subspace — which is what an unscaled raw point would be.
func TestRunNormalizedPointRescaled(t *testing.T) {
	path := writeFixture(t)
	snapPath := filepath.Join(t.TempDir(), "norm.snap")
	point := rawRow(t, path, 50) // planted outliers are the low rows
	var fresh, errBuf bytes.Buffer
	if err := run([]string{"-data", path, "-k", "4", "-tq", "0.95", "-normalize", "-all",
		"-point", point, "-save", snapPath}, &fresh, &errBuf); err != nil {
		t.Fatal(err)
	}
	var restored bytes.Buffer
	if err := run([]string{"-load", snapPath, "-all", "-point", point}, &restored, &errBuf); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"-normalize": fresh.String(), "-load": restored.String()} {
		if strings.Contains(out, "full outlying set: 15 subspaces") {
			t.Fatalf("%s: raw-unit point evaluated unscaled against normalized data:\n%s", name, out)
		}
	}
}
