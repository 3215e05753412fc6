// Package snapshot persists a named dataset together with every
// preprocessing artifact the serving path needs — the normalized
// vector.Dataset, generation provenance, the full miner configuration
// (including shard layout), the resolved threshold and learned priors,
// and the serialized X-tree index — in a versioned, checksummed binary
// file. Restoring a snapshot reconstructs a miner that answers every
// query byte-identically to the freshly built one (internal/conformance
// pins this across backends and shard widths) while skipping threshold
// resolution, learning AND index construction, which dominate startup
// cost on large datasets.
//
// On-disk layout (all integers little-endian; see DESIGN.md §8):
//
//	[8]  magic "HOSSNAP1"
//	[4]  format version (currently 1)
//	[8]  payload length in bytes
//	[4]  CRC-32 (IEEE) of the payload
//	[..] payload: name, provenance, dataset, config, state?, index?
//
// The CRC covers the entire payload, so a flipped bit anywhere is
// detected before any field is trusted; within the payload every read
// is bounds-checked and every enum validated, so a corrupt or hostile
// file yields a typed error (ErrBadMagic, ErrVersion, ErrTruncated,
// ErrChecksum, ErrCorrupt — all matching errors.Is(err, ErrSnapshot)),
// never a panic. A snapshot may be dataset-only (hosgen -save): it
// carries no preprocessed state or index and restores into a plain
// dataset rather than a miner.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/subspace"
	"repro/internal/vector"
)

// Magic identifies a snapshot file; Version guards the payload layout.
// Version bumps are compatibility breaks: readers reject newer
// versions rather than guessing (the format carries no migration
// metadata by design — snapshots are rebuildable caches, not archives).
const (
	Version = 1
)

var magic = [8]byte{'H', 'O', 'S', 'S', 'N', 'A', 'P', '1'}

// ErrSnapshot is the class every decode failure matches via errors.Is,
// whatever the specific cause below.
var ErrSnapshot = errors.New("snapshot: invalid snapshot")

// Typed decode failures. All wrap ErrSnapshot.
var (
	// ErrBadMagic: the file does not start with the snapshot magic —
	// not a snapshot at all.
	ErrBadMagic = fmt.Errorf("%w: bad magic (not a snapshot file)", ErrSnapshot)
	// ErrVersion: a snapshot from a newer (or unknown) format version.
	ErrVersion = fmt.Errorf("%w: unsupported format version", ErrSnapshot)
	// ErrTruncated: the stream ended before the declared payload did.
	ErrTruncated = fmt.Errorf("%w: truncated", ErrSnapshot)
	// ErrChecksum: the payload bytes do not match their CRC.
	ErrChecksum = fmt.Errorf("%w: checksum mismatch (corrupt file)", ErrSnapshot)
	// ErrCorrupt: the checksum held but a field is structurally invalid
	// (also the verdict for a truncation the CRC happens to cover).
	ErrCorrupt = fmt.Errorf("%w: corrupt payload", ErrSnapshot)
)

// Provenance records where a snapshot's dataset came from, pinning
// experiments to exact bytes: a generator name + seed reproduces the
// raw data, Source names an external file, and Normalized records
// whether min-max rescaling ran before preprocessing.
type Provenance struct {
	// Generator is the datagen.ByName generator ("" when the dataset
	// was loaded from a file rather than generated).
	Generator string
	// Seed is the generation seed (meaningful with Generator).
	Seed int64
	// Source is the path the dataset was loaded from ("" when
	// generated).
	Source string
	// Normalized records that columns were min-max rescaled to [0,1]
	// before the snapshot was taken.
	Normalized bool
	// CreatedUnix is the capture time (Unix seconds).
	CreatedUnix int64
}

// ColumnRange is one dimension's raw-data [Min, Max] span from before
// min-max normalization. A snapshot of a normalized dataset carries
// one per column so a restored server can rebuild the point transform
// that maps raw-unit ad-hoc query vectors into the dataset's [0,1]
// coordinate space — without it, every client vector would look
// maximally distant from the normalized data after a restart.
type ColumnRange struct {
	Min, Max float64
}

// Normalize min-max rescales every column of ds to [0,1] (a new
// Dataset; constant columns map to 0) and returns the raw ranges a
// snapshot records as NormStats.
func Normalize(ds *vector.Dataset) (*vector.Dataset, []ColumnRange) {
	norm, stats := ds.MinMaxNormalize()
	ranges := make([]ColumnRange, len(stats))
	for j, st := range stats {
		ranges[j] = ColumnRange{Min: st.Min, Max: st.Max}
	}
	return norm, ranges
}

// NormalizePoint maps a raw-unit point into the coordinate space of a
// dataset normalized with ranges norm, by the same rescaling Normalize
// applies to the dataset: constant columns map to 0 and values outside
// a range extrapolate linearly. The result has len(p); coordinates
// without a range map to 0, so callers check dimensions themselves.
func NormalizePoint(p []float64, norm []ColumnRange) []float64 {
	out := make([]float64, len(p))
	for j, v := range p {
		if j < len(norm) {
			if span := norm[j].Max - norm[j].Min; span > 0 {
				out[j] = (v - norm[j].Min) / span
			}
		}
	}
	return out
}

// Snapshot is the in-memory form of one snapshot file.
type Snapshot struct {
	// Name is the dataset's registry name (also the conventional file
	// stem: <name>.snap).
	Name string
	// Provenance pins the dataset's origin.
	Provenance Provenance
	// Dataset is the (possibly normalized) data exactly as served.
	Dataset *vector.Dataset
	// Config is the full miner parameterisation, shard layout included.
	// Meaningful whenever State is present; for dataset-only snapshots
	// it is the zero Config.
	Config core.Config
	// State is the preprocessed outcome (resolved threshold + priors);
	// nil for dataset-only snapshots.
	State *core.State
	// Index is the serialized k-NN index; nil for dataset-only
	// snapshots (and empty for linear-scan configurations).
	Index *core.IndexSnapshot
	// NormStats is the per-column raw [Min, Max] behind a min-max
	// normalized dataset (len Dim), empty when the dataset is served
	// in raw units. It is the only record of normalization: restorers
	// map raw-unit points into the dataset's space with NormalizePoint.
	NormStats []ColumnRange
}

// HasState reports whether the snapshot carries preprocessed state —
// i.e. whether Restore can produce a ready miner.
func (s *Snapshot) HasState() bool { return s != nil && s.State != nil }

// Capture snapshots a preprocessed miner together with its dataset.
// It fails if the miner has not run Preprocess (or ImportState): a
// snapshot exists to skip that work, so capturing before it happened
// would persist a lie.
func Capture(name string, prov Provenance, m *core.Miner) (*Snapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("snapshot: nil miner")
	}
	state, err := m.ExportState()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	idx, err := m.ExportIndex()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &Snapshot{
		Name:       name,
		Provenance: prov,
		Dataset:    m.Dataset(),
		Config:     m.Config(),
		State:      state,
		Index:      idx,
	}, nil
}

// FromDataset builds a dataset-only snapshot (no preprocessed state,
// no index) — the hosgen form, loadable anywhere a CSV is.
func FromDataset(name string, prov Provenance, ds *vector.Dataset) (*Snapshot, error) {
	if ds == nil {
		return nil, fmt.Errorf("snapshot: nil dataset")
	}
	return &Snapshot{Name: name, Provenance: prov, Dataset: ds}, nil
}

// Restore reconstructs a ready-to-serve miner: the index is decoded
// rather than rebuilt and the state imported rather than relearned,
// so no OD evaluation or tree insertion runs. It fails on
// dataset-only snapshots — build a miner over s.Dataset directly for
// those.
func (s *Snapshot) Restore() (*core.Miner, error) {
	if !s.HasState() {
		return nil, fmt.Errorf("snapshot: %q is dataset-only (no preprocessed state); configure a miner over its dataset instead", s.Name)
	}
	m, err := core.NewMinerWithIndex(s.Dataset, s.Config, s.Index)
	if err != nil {
		return nil, fmt.Errorf("snapshot: restoring %q: %w", s.Name, err)
	}
	if err := m.ImportState(s.State); err != nil {
		return nil, fmt.Errorf("snapshot: restoring %q: %w", s.Name, err)
	}
	return m, nil
}

// Write serializes the snapshot: header, CRC, payload.
func Write(w io.Writer, s *Snapshot) error {
	if s == nil || s.Dataset == nil {
		return fmt.Errorf("snapshot: nothing to write (nil snapshot or dataset)")
	}
	if s.State != nil {
		// Guard invariants the reader will enforce, so a bad capture
		// fails at write time (attributable) rather than at some future
		// boot (not).
		if err := s.Config.Validate(s.Dataset); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	payload := encodePayload(s)
	var hdr [24]byte
	copy(hdr[:8], magic[:])
	putU32(hdr[8:12], Version)
	putU64(hdr[12:20], uint64(len(payload)))
	putU32(hdr[20:24], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Read parses a snapshot stream, verifying magic, version, length and
// checksum before decoding a single payload field.
func Read(r io.Reader) (*Snapshot, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, ErrTruncated
		}
		return nil, err
	}
	if [8]byte(hdr[:8]) != magic {
		return nil, ErrBadMagic
	}
	if v := getU32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("%w: have %d, support %d", ErrVersion, v, Version)
	}
	length := getU64(hdr[12:20])
	want := getU32(hdr[20:24])
	// Grow-as-you-read: never pre-allocate the declared length, which
	// an adversarial header could set to anything.
	payload, err := io.ReadAll(io.LimitReader(r, int64(length)))
	if err != nil {
		return nil, err
	}
	if uint64(len(payload)) != length {
		return nil, ErrTruncated
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, ErrChecksum
	}
	return decodePayload(payload)
}

// SaveFile writes the snapshot to path atomically and durably:
// write(tmp) → fsync(tmp) → rename → fsync(directory). The rename
// keeps a crash mid-write from leaving a half-snapshot where a warm
// start would find it; the directory fsync makes the *name* durable —
// without it, power loss after the rename can resurrect the old file
// (or none), and a sibling WAL bound to the new file's CRC would be
// rejected as stale on restart (see internal/wal's ordering contract).
func SaveFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := Write(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadFile reads a snapshot file.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// FileCRC32 returns the CRC-32 (IEEE) of the file's bytes, streamed —
// the binding key a WAL header (wal.Header.BaseCRC) uses to tie a
// delta log to the exact base snapshot it extends.
func FileCRC32(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// ---- payload encoding ----

// Section presence flags.
const (
	flagState = 1 << 0
	flagIndex = 1 << 1
	flagNorm  = 1 << 2
)

func encodePayload(s *Snapshot) []byte {
	e := &encoder{}
	e.str(s.Name)
	// Provenance.
	e.str(s.Provenance.Generator)
	e.i64(s.Provenance.Seed)
	e.str(s.Provenance.Source)
	e.bool(s.Provenance.Normalized)
	e.i64(s.Provenance.CreatedUnix)
	// Dataset.
	ds := s.Dataset
	e.u32(uint32(ds.N()))
	e.u32(uint32(ds.Dim()))
	cols := ds.Columns()
	e.bool(cols != nil)
	for _, c := range cols {
		e.str(c)
	}
	for i := 0; i < ds.N(); i++ {
		for _, v := range ds.Point(i) {
			e.f64(v)
		}
	}
	// Sections.
	var flags uint8
	if s.State != nil {
		flags |= flagState
	}
	if s.Index != nil {
		flags |= flagIndex
	}
	if len(s.NormStats) > 0 {
		flags |= flagNorm
	}
	e.u8(flags)
	if s.State != nil {
		encodeConfig(e, s.Config)
		e.f64(s.State.Threshold)
		e.bool(s.State.Learned)
		e.f64s(s.State.PUp)
		e.f64s(s.State.PDown)
	}
	if s.Index != nil {
		e.bytes(s.Index.Tree)
		e.bool(s.Index.ShardTrees != nil)
		if s.Index.ShardTrees != nil {
			e.u32(uint32(len(s.Index.ShardTrees)))
			for _, b := range s.Index.ShardTrees {
				e.bytes(b)
			}
		}
	}
	if len(s.NormStats) > 0 {
		e.u32(uint32(len(s.NormStats)))
		for _, c := range s.NormStats {
			e.f64(c.Min)
			e.f64(c.Max)
		}
	}
	return e.buf
}

func encodeConfig(e *encoder, c core.Config) {
	e.u32(uint32(c.K))
	e.f64(c.T)
	e.f64(c.TQuantile)
	e.u8(uint8(c.Metric))
	e.u32(uint32(c.SampleSize))
	e.i64(c.Seed)
	e.u8(uint8(c.Policy))
	e.u8(uint8(c.Backend))
	e.u32(uint32(c.Shards))
	e.u8(uint8(c.Partitioner))
}

func decodePayload(payload []byte) (*Snapshot, error) {
	d := &decoder{buf: payload}
	s := &Snapshot{}
	s.Name = d.str()
	s.Provenance.Generator = d.str()
	s.Provenance.Seed = d.i64()
	s.Provenance.Source = d.str()
	s.Provenance.Normalized = d.bool()
	s.Provenance.CreatedUnix = d.i64()

	n := int(d.u32())
	dim := int(d.u32())
	if d.err != nil {
		return nil, d.err
	}
	if dim < 1 || dim > subspace.MaxDim {
		return nil, fmt.Errorf("%w: dimensionality %d out of [1,%d]", ErrCorrupt, dim, subspace.MaxDim)
	}
	var cols []string
	if d.bool() {
		cols = make([]string, dim)
		for i := range cols {
			cols[i] = d.str()
		}
	}
	// Bound the allocation by the bytes actually present: n*dim floats
	// need n*dim*8 payload bytes.
	if d.err == nil && d.remaining()/8 < n*dim {
		return nil, fmt.Errorf("%w: dataset claims %d×%d values, payload too short", ErrCorrupt, n, dim)
	}
	flat := make([]float64, n*dim)
	for i := range flat {
		flat[i] = d.f64()
	}
	if d.err != nil {
		return nil, d.err
	}
	// The same finiteness contract dataio enforces on CSV: mining over
	// NaN/±Inf is undefined (every distance comparison involving NaN
	// is false), and snapshots are operator-provided files — a crafted
	// or re-checksummed one must not smuggle poison into the serving
	// path.
	for i, v := range flat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite coordinate %v at row %d col %d", ErrCorrupt, v, i/dim, i%dim)
		}
	}
	ds, err := vector.NewDataset(flat, n, dim)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if cols != nil {
		if err := ds.SetColumns(cols); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	s.Dataset = ds

	flags := d.u8()
	if d.err != nil {
		return nil, d.err
	}
	if flags&^(flagState|flagIndex|flagNorm) != 0 {
		return nil, fmt.Errorf("%w: unknown section flags %#x", ErrCorrupt, flags)
	}
	if flags&flagState != 0 {
		cfg, err := decodeConfig(d)
		if err != nil {
			return nil, err
		}
		s.Config = cfg
		st := &core.State{Threshold: d.f64(), Learned: d.bool()}
		st.PUp = d.f64s()
		st.PDown = d.f64s()
		if d.err != nil {
			return nil, d.err
		}
		s.State = st
		if err := s.Config.Validate(ds); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if flags&flagIndex != 0 {
		idx := &core.IndexSnapshot{}
		idx.Tree = d.bytes()
		if d.bool() {
			count := int(d.u32())
			if d.err != nil {
				return nil, d.err
			}
			if count > d.remaining() {
				return nil, fmt.Errorf("%w: %d shard trees in %d remaining bytes", ErrCorrupt, count, d.remaining())
			}
			idx.ShardTrees = make([][]byte, count)
			for i := range idx.ShardTrees {
				idx.ShardTrees[i] = d.bytes()
			}
		}
		if d.err != nil {
			return nil, d.err
		}
		s.Index = idx
	}
	if flags&flagNorm != 0 {
		count := int(d.u32())
		if d.err != nil {
			return nil, d.err
		}
		if count != dim {
			return nil, fmt.Errorf("%w: %d normalization ranges for %d dims", ErrCorrupt, count, dim)
		}
		s.NormStats = make([]ColumnRange, count)
		for i := range s.NormStats {
			s.NormStats[i] = ColumnRange{Min: d.f64(), Max: d.f64()}
		}
		if d.err != nil {
			return nil, d.err
		}
		for i, c := range s.NormStats {
			if math.IsNaN(c.Min) || math.IsInf(c.Min, 0) || math.IsNaN(c.Max) || math.IsInf(c.Max, 0) || c.Max < c.Min {
				return nil, fmt.Errorf("%w: invalid normalization range [%v,%v] for dim %d", ErrCorrupt, c.Min, c.Max, i)
			}
		}
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return s, d.err
}

func decodeConfig(d *decoder) (core.Config, error) {
	cfg := core.Config{
		K:         int(d.u32()),
		T:         d.f64(),
		TQuantile: d.f64(),
		Metric:    vector.Metric(d.u8()),
	}
	cfg.SampleSize = int(d.u32())
	cfg.Seed = d.i64()
	cfg.Policy = core.Policy(d.u8())
	cfg.Backend = core.Backend(d.u8())
	cfg.Shards = int(d.u32())
	cfg.Partitioner = shard.Partitioner(d.u8())
	if d.err != nil {
		return cfg, d.err
	}
	// Enum sanity beyond what Config.Validate covers (it assumes values
	// produced by parsers, not by a file).
	if !cfg.Metric.Valid() || !cfg.Policy.Valid() || cfg.Backend > core.BackendXTree || !cfg.Partitioner.Valid() {
		return cfg, fmt.Errorf("%w: invalid enum in config", ErrCorrupt)
	}
	return cfg, nil
}
