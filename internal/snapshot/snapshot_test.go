package snapshot

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/shard"
	"repro/internal/vector"
)

func testMiner(t *testing.T, cfg core.Config) *core.Miner {
	t.Helper()
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 140, D: 4, NumOutliers: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Preprocess(); err != nil {
		t.Fatal(err)
	}
	return m
}

func captureTest(t *testing.T, cfg core.Config) *Snapshot {
	t.Helper()
	m := testMiner(t, cfg)
	s, err := Capture("unit", Provenance{Generator: "synthetic", Seed: 21, CreatedUnix: 1700000000}, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWriteReadRoundTrip pins every field of the container format
// through a full write/read cycle, for unsharded and sharded capture.
func TestWriteReadRoundTrip(t *testing.T) {
	configs := map[string]core.Config{
		"xtree":   {K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree, SampleSize: 10},
		"linear":  {K: 4, T: 8, Seed: 2, Backend: core.BackendLinear},
		"sharded": {K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree, Shards: 3, Partitioner: shard.HashPoint},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			s := captureTest(t, cfg)
			var buf bytes.Buffer
			if err := Write(&buf, s); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if got.Name != s.Name || got.Provenance != s.Provenance {
				t.Fatalf("identity diverged: %+v vs %+v", got, s)
			}
			if got.Config != s.Config {
				t.Fatalf("config diverged: %+v vs %+v", got.Config, s.Config)
			}
			if !reflect.DeepEqual(got.State, s.State) {
				t.Fatalf("state diverged: %+v vs %+v", got.State, s.State)
			}
			if !reflect.DeepEqual(got.Index, s.Index) {
				t.Fatalf("index diverged")
			}
			if !reflect.DeepEqual(got.Dataset.Rows(), s.Dataset.Rows()) {
				t.Fatal("dataset bytes diverged")
			}
			if !reflect.DeepEqual(got.Dataset.Columns(), s.Dataset.Columns()) {
				t.Fatalf("columns diverged: %v vs %v", got.Dataset.Columns(), s.Dataset.Columns())
			}

			// And the restored miner answers like the original.
			fresh := testMiner(t, cfg)
			warm, err := got.Restore()
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if warm.Threshold() != fresh.Threshold() {
				t.Fatalf("threshold %v vs %v", warm.Threshold(), fresh.Threshold())
			}
			for i := 0; i < 25; i++ {
				a, err := fresh.OutlyingSubspacesOfPoint(i)
				if err != nil {
					t.Fatal(err)
				}
				b, err := warm.OutlyingSubspacesOfPoint(i)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Minimal, b.Minimal) {
					t.Fatalf("point %d: %v vs %v", i, a.Minimal, b.Minimal)
				}
			}
		})
	}
}

func TestDatasetOnlySnapshot(t *testing.T) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 60, D: 3, NumOutliers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FromDataset("gen-only", Provenance{Generator: "synthetic", Seed: 5}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if s.HasState() {
		t.Fatal("dataset-only snapshot claims state")
	}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasState() || got.Index != nil {
		t.Fatalf("dataset-only snapshot grew sections: %+v", got)
	}
	if !reflect.DeepEqual(got.Dataset.Rows(), ds.Rows()) {
		t.Fatal("dataset diverged")
	}
	if _, err := got.Restore(); err == nil {
		t.Fatal("Restore succeeded without state")
	}
}

func TestSaveLoadFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "unit.snap")
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "unit" {
		t.Fatalf("name = %q", got.Name)
	}
	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the snapshot", len(entries))
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// TestTypedDecodeErrors drives each failure class and checks the
// errors.Is taxonomy.
func TestTypedDecodeErrors(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Bad magic.
	mut := append([]byte(nil), valid...)
	mut[0] = 'X'
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	// Future version.
	mut = append([]byte(nil), valid...)
	mut[8] = 99
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
	// Truncations at every boundary class.
	for _, cut := range []int{0, 7, 23, 24, len(valid) / 2, len(valid) - 1} {
		if _, err := Read(bytes.NewReader(valid[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncation at %d: %v", cut, err)
		}
	}
	// Payload corruption: CRC catches any payload flip.
	mut = append([]byte(nil), valid...)
	mut[24+len(mut[24:])/2] ^= 0x01
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload flip: %v", err)
	}
	// Consistent CRC over a corrupt field: recompute the CRC after
	// mutating the declared name length to something absurd.
	mut = append([]byte(nil), valid...)
	putU32(mut[24:28], 1<<30) // name length field
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("field overrun: %v", err)
	}
	// All of the above are ErrSnapshot.
	for _, err := range []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt} {
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("%v does not match ErrSnapshot", err)
		}
	}
	// Writing nothing fails.
	if err := Write(&buf, nil); err == nil {
		t.Fatal("Write(nil) succeeded")
	}
}

// rehash recomputes the header CRC over the (mutated) payload so the
// decoder gets past the checksum and into field validation.
func rehash(b []byte) {
	putU32(b[20:24], crc32.ChecksumIEEE(b[24:]))
}

// TestConstructorGuards covers the nil-argument and error arms of the
// public constructors.
func TestConstructorGuards(t *testing.T) {
	if _, err := Capture("x", Provenance{}, nil); err == nil {
		t.Fatal("Capture(nil miner) succeeded")
	}
	if _, err := FromDataset("x", Provenance{}, nil); err == nil {
		t.Fatal("FromDataset(nil) succeeded")
	}
	// Capturing an un-preprocessed miner must fail: the snapshot would
	// claim state that does not exist.
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: 50, D: 3, NumOutliers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMiner(ds, core.Config{K: 3, TQuantile: 0.9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Capture("raw", Provenance{}, m); err == nil {
		t.Fatal("Capture before Preprocess succeeded")
	}
	// SaveFile into a nonexistent directory fails cleanly.
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	if err := SaveFile(filepath.Join(t.TempDir(), "no", "dir", "x.snap"), s); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
}

// TestCorruptFieldsAfterRehash drives decodePayload's structural arms
// that only a CRC-consistent corruption can reach.
func TestCorruptFieldsAfterRehash(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2, Backend: core.BackendXTree})
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// Locate the dataset dim field: payload starts at 24 with
	// name(4+len), generator(4+len), seed(8), source(4+len),
	// normalized(1), created(8), n(4), dim(4).
	off := 24
	off += 4 + len(s.Name)
	off += 4 + len(s.Provenance.Generator)
	off += 8
	off += 4 + len(s.Provenance.Source)
	off += 1 + 8
	nOff, dimOff := off, off+4

	mutate := func(f func(b []byte)) error {
		mut := append([]byte(nil), valid...)
		f(mut)
		rehash(mut)
		_, err := Read(bytes.NewReader(mut))
		return err
	}
	// Absurd dimensionality.
	if err := mutate(func(b []byte) { putU32(b[dimOff:], 9999) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dim=9999: %v", err)
	}
	// Zero dimensionality.
	if err := mutate(func(b []byte) { putU32(b[dimOff:], 0) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dim=0: %v", err)
	}
	// Dataset bigger than the payload can hold.
	if err := mutate(func(b []byte) { putU32(b[nOff:], 1<<30) }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("n=2^30: %v", err)
	}
	// Unknown section flags / trailing garbage: flip the final byte of
	// the payload tail after appending junk.
	mut := append([]byte(nil), valid...)
	mut = append(mut, 0xAB)
	putU64(mut[12:20], uint64(len(mut)-24))
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: %v", err)
	}
}

// TestNormStatsRoundTripAndValidation: normalization ranges survive
// the byte format, and non-finite dataset coordinates or degenerate
// ranges are rejected as corrupt even under a consistent CRC.
func TestNormStatsRoundTripAndValidation(t *testing.T) {
	s := captureTest(t, core.Config{K: 4, TQuantile: 0.9, Seed: 2})
	s.NormStats = []ColumnRange{{0, 10}, {-5, 5}, {1, 1}, {0, 2}}
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	got, err := Read(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.NormStats, s.NormStats) {
		t.Fatalf("norm stats diverged: %v vs %v", got.NormStats, s.NormStats)
	}

	// NaN in a normalization range: corrupt.
	nanBits := math.Float64bits(math.NaN())
	mut := append([]byte(nil), valid...)
	putU64(mut[len(mut)-16:], nanBits) // Min of the final range
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN norm range: %v", err)
	}
	// Inverted range: corrupt.
	mut = append([]byte(nil), valid...)
	putU64(mut[len(mut)-16:], math.Float64bits(99))
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inverted norm range: %v", err)
	}

	// NaN dataset coordinate (the dataio finiteness contract holds on
	// the snapshot path too): first float of the data block.
	off := 24
	off += 4 + len(s.Name)
	off += 4 + len(s.Provenance.Generator)
	off += 8
	off += 4 + len(s.Provenance.Source)
	off += 1 + 8
	off += 4 + 4 + 1 // n, dim, has-columns (captureTest data has none)
	mut = append([]byte(nil), valid...)
	putU64(mut[off:], nanBits)
	rehash(mut)
	if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("NaN coordinate: %v", err)
	}
}

// TestSnapshotFileRoundTrip covers the path-level file API: SaveFile
// and LoadFile round trip, a CSV handed to LoadFile is refused with
// the typed error, and FileCRC32 — the WAL's base-snapshot binding
// key — is the CRC of the bytes SaveFile wrote.
func TestSnapshotFileRoundTrip(t *testing.T) {
	ds, _ := vector.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err := ds.SetColumns([]string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	s, err := FromDataset("pair", Provenance{Source: "unit"}, ds)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "pair.snap")
	if err := SaveFile(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "pair" || back.Dataset.N() != 3 || back.Dataset.ColumnName(1) != "y" {
		t.Fatalf("round trip lost data: %+v", back)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if crc, err := FileCRC32(path); err != nil || crc != crc32.ChecksumIEEE(raw) {
		t.Fatalf("FileCRC32 = %#x, %v; want %#x", crc, err, crc32.ChecksumIEEE(raw))
	}
	if _, err := FileCRC32(filepath.Join(dir, "missing.snap")); err == nil {
		t.Fatal("FileCRC32 of a missing file succeeded")
	}
	csvPath := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(csvPath, []byte("x,y\n1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(csvPath); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("LoadFile(csv): err = %v, want a typed snapshot error", err)
	}
}

// TestNormalizePoint: a raw dataset row mapped through NormalizePoint
// lands bit for bit on its Normalize-d row, constant columns map to 0,
// and out-of-range values extrapolate linearly.
func TestNormalizePoint(t *testing.T) {
	raw, _ := vector.FromRows([][]float64{{0, 5, 2}, {10, 5, 14}, {3.7, 5, 9.1}})
	norm, ranges := Normalize(raw)
	if want := []ColumnRange{{0, 10}, {5, 5}, {2, 14}}; !reflect.DeepEqual(ranges, want) {
		t.Fatalf("ranges = %v, want %v", ranges, want)
	}
	for i := 0; i < raw.N(); i++ {
		if got := NormalizePoint(raw.Point(i), ranges); !reflect.DeepEqual(got, norm.Point(i)) {
			t.Fatalf("row %d: NormalizePoint = %v, Normalize = %v", i, got, norm.Point(i))
		}
	}
	if got := NormalizePoint([]float64{5, 5, 8}, ranges); math.Abs(got[0]-0.5) > 1e-12 || got[1] != 0 || math.Abs(got[2]-0.5) > 1e-12 {
		t.Fatalf("NormalizePoint(5,5,8) = %v", got)
	}
	if got := NormalizePoint([]float64{20, 0, -10}, ranges); got[0] != 2 || got[1] != 0 || got[2] != -1 {
		t.Fatalf("NormalizePoint out of range = %v, want [2 0 -1]", got)
	}
}
