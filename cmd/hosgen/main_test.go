package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataio"
	"repro/internal/snapshot"
)

func TestRunToStdout(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-type", "synthetic", "-n", "20", "-d", "3", "-outliers", "2"}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataio.ReadCSV(&out)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 20 || ds.Dim() != 3 {
		t.Fatalf("shape (%d,%d)", ds.N(), ds.Dim())
	}
}

func TestRunToFilesWithTruth(t *testing.T) {
	dir := t.TempDir()
	dataPath := filepath.Join(dir, "d.csv")
	truthPath := filepath.Join(dir, "t.csv")
	var out, errBuf bytes.Buffer
	err := run([]string{"-type", "synthetic", "-n", "30", "-d", "4",
		"-outliers", "3", "-out", dataPath, "-truth", truthPath}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataio.LoadFile(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 30 {
		t.Fatalf("N = %d", ds.N())
	}
	truth, err := os.ReadFile(truthPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(truth)), "\n")
	if len(lines) != 4 || lines[0] != "index,subspace" {
		t.Fatalf("truth file:\n%s", truth)
	}
	if !strings.Contains(errBuf.String(), "wrote 30 points") {
		t.Fatalf("stderr: %q", errBuf.String())
	}
}

func TestRunAllTypes(t *testing.T) {
	for _, typ := range []string{"synthetic", "uniform", "athlete", "medical", "nba"} {
		var out, errBuf bytes.Buffer
		if err := run([]string{"-type", typ, "-n", "30", "-outliers", "2"}, &out, &errBuf); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if out.Len() == 0 {
			t.Fatalf("%s: empty output", typ)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-type", "bogus"}, &out, &errBuf); err == nil {
		t.Fatal("bogus type accepted")
	}
	if err := run([]string{"-type", "synthetic", "-n", "1"}, &out, &errBuf); err == nil {
		t.Fatal("n=1 accepted")
	}
	if err := run([]string{"-notaflag"}, &out, &errBuf); err == nil {
		t.Fatal("bad flag accepted")
	}
	// deterministic output for fixed seed
	var a, b bytes.Buffer
	if err := run([]string{"-n", "25", "-d", "3", "-seed", "9"}, &a, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-n", "25", "-d", "3", "-seed", "9"}, &b, &errBuf); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different CSV")
	}
}

// TestRunSaveSnapshot: -save writes a loadable dataset-only snapshot
// with generator provenance; -save alone suppresses the CSV dump.
func TestRunSaveSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "gen.snap")
	var out, errBuf bytes.Buffer
	err := run([]string{"-type", "synthetic", "-n", "30", "-d", "3", "-outliers", "2",
		"-seed", "11", "-save", snapPath}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-save alone still dumped CSV to stdout (%d bytes)", out.Len())
	}
	if !strings.Contains(errBuf.String(), "wrote snapshot") {
		t.Fatalf("stderr: %s", errBuf.String())
	}
	s, err := snapshot.LoadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "gen" || s.HasState() {
		t.Fatalf("snapshot = %+v, want dataset-only named gen", s)
	}
	if s.Provenance.Generator != "synthetic" || s.Provenance.Seed != 11 {
		t.Fatalf("provenance = %+v", s.Provenance)
	}
	if s.Dataset.N() != 30 || s.Dataset.Dim() != 3 {
		t.Fatalf("shape (%d,%d)", s.Dataset.N(), s.Dataset.Dim())
	}
	// The snapshot pins the same bytes the CSV path produces.
	csvPath := filepath.Join(dir, "gen.csv")
	var out2, errBuf2 bytes.Buffer
	if err := run([]string{"-type", "synthetic", "-n", "30", "-d", "3", "-outliers", "2",
		"-seed", "11", "-out", csvPath, "-save", filepath.Join(dir, "gen2.snap")}, &out2, &errBuf2); err != nil {
		t.Fatal(err)
	}
	csvDS, err := dataio.LoadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 3; j++ {
			if csvDS.Point(i)[j] != s.Dataset.Point(i)[j] {
				t.Fatalf("value (%d,%d) diverges between CSV and snapshot", i, j)
			}
		}
	}
}
