// Package wal is the write-ahead delta log that makes live datasets
// durable: a base snapshot (internal/snapshot's `.snap` file) plus a
// sibling `.wal` file of CRC-checked append/delete records. The snap
// format is deliberately untouched — its decoder rejects trailing
// bytes, so deltas layer beside it, never inside it.
//
// Binding and layout. A log's header names the exact base it extends:
// BaseCRC is the CRC-32 (IEEE) of the entire base snapshot file. A
// compaction that folds the deltas into a fresh snapshot changes those
// bytes, so any stale log left behind by a crash mid-compaction fails
// the binding check and is ignored — the data it carried is already in
// the new base. The header also carries the dataset's row-identity
// state (the stable row IDs of the base rows and the next ID to
// assign), so delete-by-ID ranges stay meaningful across restarts and
// compactions.
//
// Integrity. Every record carries its payload length and CRC; the
// header carries its own CRC. Replay stops at the first record that
// fails to frame or checksum — a torn tail from a crash mid-write
// loses at most the final record, and Open truncates the file back to
// the last valid record before appending further. The decoder never
// panics on arbitrary bytes (FuzzWALReplay enforces this) and bounds
// every allocation by the remaining input.
//
// Durability ordering contract. Creating or rotating a log (and the
// base snapshot it binds to) follows write(tmp) → fsync(tmp) →
// rename(tmp, final) → fsync(directory). The final fsync is load-
// bearing: rename alone orders the data blocks, but the *name* lives
// in the directory inode, and on power loss an unsynced directory can
// forget the rename entirely — leaving a stale (or absent) file whose
// BaseCRC no longer matches. Create fsyncs the parent directory after
// its rename; the snapshot writer does the same for `.snap` files.
//
// Sync policy. When each appended record reaches stable storage is a
// SyncPolicy decision: SyncAlways fsyncs per record, SyncBatch defers
// to the caller's per-group-commit Commit(), SyncInterval coalesces
// fsyncs in time (acknowledged mutations inside the window can be
// lost on power failure — the documented trade). A whole drained
// mutation batch is journaled as one RecordBatch frame (one CRC, one
// fsync), which is what makes group commit cheaper than N single-row
// records.
//
// All integers are little-endian, matching the snapshot codec.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Magic opens every WAL file.
const Magic = "HOSWAL01"

// Version is the current format version. RecordBatch (type 3) is an
// additive record type: version stays 1 because old records still
// decode identically, and an old reader treats an unknown type as a
// torn tail rather than misreading it.
const Version = 1

// Typed errors, wrapped so callers can errors.Is.
var (
	// ErrWAL is the root of every error this package returns.
	ErrWAL = errors.New("wal: invalid log")
	// ErrBadMagic: the file does not start with Magic.
	ErrBadMagic = fmt.Errorf("%w: bad magic", ErrWAL)
	// ErrVersion: a future (or garbage) format version.
	ErrVersion = fmt.Errorf("%w: unsupported version", ErrWAL)
	// ErrHeader: the header failed to frame or checksum.
	ErrHeader = fmt.Errorf("%w: corrupt header", ErrWAL)
	// ErrBaseMismatch is for callers to report (via errors.Is) when a
	// log's BaseCRC does not match the snapshot it sits beside — a
	// stale log from before a compaction.
	ErrBaseMismatch = fmt.Errorf("%w: base snapshot mismatch", ErrWAL)
)

// RecordType discriminates delta records.
type RecordType uint8

const (
	// RecordAppend adds rows to the end of the dataset.
	RecordAppend RecordType = 1
	// RecordDelete removes the rows whose stable IDs fall in
	// [FromID, ToID).
	RecordDelete RecordType = 2
	// RecordBatch is a group commit: one framed record carrying an
	// ingest stamp plus any number of append/delete sub-records, all
	// covered by a single CRC and (typically) a single fsync. Replay
	// flattens it — Replayed.Records never contains a RecordBatch.
	RecordBatch RecordType = 3
)

// Header binds a log to its base snapshot and carries row identity.
type Header struct {
	// Dim is the dataset dimensionality (validates append records).
	Dim int
	// BaseCRC is the CRC-32 (IEEE) of the base snapshot file bytes.
	BaseCRC uint32
	// NextID is the next stable row ID to assign.
	NextID int64
	// BaseIDs are the stable IDs of the base snapshot's rows, in row
	// order. Contiguous 0..N-1 right after a dataset first goes live;
	// an arbitrary ascending subset after deletions and compactions.
	BaseIDs []int64
}

// Record is one replayed delta. Exactly the fields of its Type are
// meaningful.
type Record struct {
	Type RecordType
	// Append: the rows added, and the stable ID assigned to the first
	// one (the rest follow contiguously).
	Rows    [][]float64
	FirstID int64
	// Delete: stable IDs in [FromID, ToID) were removed.
	FromID int64
	ToID   int64
	// Stamp is the ingest time (Unix nanoseconds) carried by the batch
	// frame this record arrived in; zero for legacy single records.
	// Retention treats zero as "stamp at replay time" — conservative,
	// never expiring a row early.
	Stamp int64
}

// SyncMode selects when appended records are fsync'd.
type SyncMode uint8

const (
	// SyncBatch (the default, zero value) defers durability to the
	// caller's Commit() — one fsync per drained mutation batch.
	SyncBatch SyncMode = iota
	// SyncAlways fsyncs after every appended record frame.
	SyncAlways
	// SyncInterval fsyncs at most once per Interval: Commit() only
	// touches the disk when the window has elapsed. Acknowledged
	// mutations inside the window can be lost on power failure.
	SyncInterval
)

// SyncPolicy is when appended records reach stable storage. The zero
// value is SyncBatch.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration // only meaningful for SyncInterval
}

// ParseSyncPolicy parses the -wal-sync flag grammar:
// "always" | "batch" | "interval=<duration>". Empty means batch; any
// other spelling is an error.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch":
		return SyncPolicy{Mode: SyncBatch}, nil
	case "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	}
	if rest, ok := strings.CutPrefix(s, "interval="); ok {
		d, err := time.ParseDuration(rest)
		if err != nil {
			return SyncPolicy{}, fmt.Errorf("wal: sync policy %q: %v", s, err)
		}
		if d <= 0 {
			return SyncPolicy{}, fmt.Errorf("wal: sync policy %q: interval must be positive", s)
		}
		return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
	}
	return SyncPolicy{}, fmt.Errorf("wal: sync policy %q: want always, batch or interval=<duration>", s)
}

// String renders the policy in the flag grammar.
func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval=" + p.Interval.String()
	default:
		return "batch"
	}
}

// Fixed header prefix: magic + version(4) + dim(4) + baseCRC(4) +
// nextID(8) + idCount(4). The ID array and the header CRC(4) follow.
const headerFixed = len(Magic) + 4 + 4 + 4 + 8 + 4

// Per-record frame: type(1) + payloadLen(4) + payloadCRC(4).
const recordFrame = 1 + 4 + 4

// Per-sub-record frame inside a batch payload: type(1) + len(4). No
// per-sub CRC — the batch frame's single CRC covers everything.
const subFrame = 1 + 4

// maxRecordPayload caps a single record's payload; a frame declaring
// more is treated as corruption (torn tail), not an allocation order.
const maxRecordPayload = 1 << 30

// encodeHeader renders the header block, CRC included.
func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, headerFixed+len(h.BaseIDs)*8+4)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Dim))
	buf = binary.LittleEndian.AppendUint32(buf, h.BaseCRC)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.NextID))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.BaseIDs)))
	for _, id := range h.BaseIDs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	crc := crc32.ChecksumIEEE(buf[len(Magic):])
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf
}

// decodeHeader parses and verifies the header block, returning the
// header and the number of bytes it occupied.
func decodeHeader(data []byte) (Header, int, error) {
	var h Header
	if len(data) < headerFixed {
		return h, 0, fmt.Errorf("%w: %d bytes, need %d", ErrHeader, len(data), headerFixed)
	}
	if string(data[:len(Magic)]) != Magic {
		return h, 0, ErrBadMagic
	}
	off := len(Magic)
	ver := binary.LittleEndian.Uint32(data[off:])
	if ver != Version {
		return h, 0, fmt.Errorf("%w: %d (have %d)", ErrVersion, ver, Version)
	}
	dim := binary.LittleEndian.Uint32(data[off+4:])
	h.BaseCRC = binary.LittleEndian.Uint32(data[off+8:])
	h.NextID = int64(binary.LittleEndian.Uint64(data[off+12:]))
	count := binary.LittleEndian.Uint32(data[off+20:])
	if dim == 0 || dim > 1<<20 {
		return h, 0, fmt.Errorf("%w: dimensionality %d", ErrHeader, dim)
	}
	h.Dim = int(dim)
	end := headerFixed + int(count)*8 + 4
	if count > uint32(len(data)/8) || len(data) < end {
		return h, 0, fmt.Errorf("%w: truncated ID table", ErrHeader)
	}
	want := binary.LittleEndian.Uint32(data[end-4:])
	if crc32.ChecksumIEEE(data[len(Magic):end-4]) != want {
		return h, 0, fmt.Errorf("%w: checksum mismatch", ErrHeader)
	}
	h.BaseIDs = make([]int64, count)
	for i := range h.BaseIDs {
		h.BaseIDs[i] = int64(binary.LittleEndian.Uint64(data[headerFixed+i*8:]))
	}
	if h.NextID < 0 {
		return h, 0, fmt.Errorf("%w: negative next ID", ErrHeader)
	}
	prev := int64(-1)
	for _, id := range h.BaseIDs {
		if id <= prev || id >= h.NextID {
			return h, 0, fmt.Errorf("%w: ID table not ascending below next ID", ErrHeader)
		}
		prev = id
	}
	return h, end, nil
}

// encodeRecord renders one framed record.
func encodeRecord(typ RecordType, payload []byte) []byte {
	buf := make([]byte, 0, recordFrame+len(payload))
	buf = append(buf, byte(typ))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// encodeAppendPayload renders the append payload shared by single and
// batched records: count(4) + firstID(8) + rows. Rows must already be
// validated (width and finiteness).
func encodeAppendPayload(firstID int64, rows [][]float64, dim int) []byte {
	payload := make([]byte, 0, 12+len(rows)*dim*8)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rows)))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(firstID))
	for _, row := range rows {
		for _, v := range row {
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(v))
		}
	}
	return payload
}

// encodeDeletePayload renders the delete payload: fromID(8) + toID(8).
func encodeDeletePayload(fromID, toID int64) []byte {
	payload := make([]byte, 0, 16)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(fromID))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(toID))
	return payload
}

// validateAppend is the writer-side twin of decodeAppendPayload.
func validateAppend(firstID int64, rows [][]float64, dim int) error {
	if len(rows) == 0 {
		return fmt.Errorf("wal: append: no rows")
	}
	if firstID < 0 {
		return fmt.Errorf("wal: append: negative first ID")
	}
	for i, row := range rows {
		if len(row) != dim {
			return fmt.Errorf("wal: append: row %d has %d values, want %d", i, len(row), dim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("wal: append: row %d column %d is not finite", i, j)
			}
		}
	}
	return nil
}

// decodeAppendPayload parses an append payload. ok=false on any
// framing, identity or finiteness violation.
func decodeAppendPayload(payload []byte, dim int) (rows [][]float64, firstID int64, ok bool) {
	if len(payload) < 12 {
		return nil, 0, false
	}
	count := binary.LittleEndian.Uint32(payload)
	firstID = int64(binary.LittleEndian.Uint64(payload[4:]))
	if count == 0 || firstID < 0 {
		return nil, 0, false
	}
	if uint64(len(payload)-12) != uint64(count)*uint64(dim)*8 {
		return nil, 0, false
	}
	rows = make([][]float64, count)
	p := 12
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[p:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, 0, false
			}
			row[j] = v
			p += 8
		}
		rows[i] = row
	}
	return rows, firstID, true
}

// decodeDeletePayload parses a delete payload.
func decodeDeletePayload(payload []byte) (fromID, toID int64, ok bool) {
	if len(payload) != 16 {
		return 0, 0, false
	}
	fromID = int64(binary.LittleEndian.Uint64(payload))
	toID = int64(binary.LittleEndian.Uint64(payload[8:]))
	if fromID < 0 || toID < fromID {
		return 0, 0, false
	}
	return fromID, toID, true
}

// decodeBatchPayload parses a batch payload — stamp(8) + subCount(4) +
// per sub type(1)+len(4)+payload — into flattened records, each
// stamped with the frame's ingest time.
func decodeBatchPayload(payload []byte, dim int) ([]Record, bool) {
	if len(payload) < 12 {
		return nil, false
	}
	stamp := int64(binary.LittleEndian.Uint64(payload))
	count := binary.LittleEndian.Uint32(payload[8:])
	// Each sub-record needs at least its frame; a count beyond that is
	// garbage, and rejecting it here bounds the slice allocation below.
	if stamp < 0 || count == 0 || count > uint32((len(payload)-12)/subFrame) {
		return nil, false
	}
	recs := make([]Record, 0, count)
	off := 12
	for i := uint32(0); i < count; i++ {
		if len(payload)-off < subFrame {
			return nil, false
		}
		typ := RecordType(payload[off])
		slen := binary.LittleEndian.Uint32(payload[off+1:])
		off += subFrame
		if slen > maxRecordPayload || len(payload)-off < int(slen) {
			return nil, false
		}
		sub := payload[off : off+int(slen)]
		off += int(slen)
		switch typ {
		case RecordAppend:
			rows, firstID, ok := decodeAppendPayload(sub, dim)
			if !ok {
				return nil, false
			}
			recs = append(recs, Record{Type: RecordAppend, Rows: rows, FirstID: firstID, Stamp: stamp})
		case RecordDelete:
			from, to, ok := decodeDeletePayload(sub)
			if !ok {
				return nil, false
			}
			recs = append(recs, Record{Type: RecordDelete, FromID: from, ToID: to, Stamp: stamp})
		default:
			// Batches never nest, and unknown sub-types poison the
			// whole frame (its CRC passed, so this is a writer bug or
			// a future format — either way, stop trusting it).
			return nil, false
		}
	}
	if off != len(payload) {
		return nil, false
	}
	return recs, true
}

// decodeRecord parses one record at data[off:], appending the decoded
// (and, for batches, flattened) records to out. ok=false means the
// bytes from off on do not form a complete valid record — the torn
// tail (or trailing garbage, indistinguishable by design).
func decodeRecord(data []byte, off, dim int, out []Record) ([]Record, int, bool) {
	if len(data)-off < recordFrame {
		return out, 0, false
	}
	typ := RecordType(data[off])
	plen := binary.LittleEndian.Uint32(data[off+1:])
	pcrc := binary.LittleEndian.Uint32(data[off+5:])
	if plen > maxRecordPayload || len(data)-off-recordFrame < int(plen) {
		return out, 0, false
	}
	payload := data[off+recordFrame : off+recordFrame+int(plen)]
	if crc32.ChecksumIEEE(payload) != pcrc {
		return out, 0, false
	}
	switch typ {
	case RecordAppend:
		rows, firstID, ok := decodeAppendPayload(payload, dim)
		if !ok {
			return out, 0, false
		}
		out = append(out, Record{Type: RecordAppend, Rows: rows, FirstID: firstID})
	case RecordDelete:
		from, to, ok := decodeDeletePayload(payload)
		if !ok {
			return out, 0, false
		}
		out = append(out, Record{Type: RecordDelete, FromID: from, ToID: to})
	case RecordBatch:
		recs, ok := decodeBatchPayload(payload, dim)
		if !ok {
			return out, 0, false
		}
		out = append(out, recs...)
	default:
		return out, 0, false
	}
	return out, recordFrame + int(plen), true
}

// Replayed is the result of decoding a log image.
type Replayed struct {
	Header Header
	// Records are the flattened deltas in journal order: batch frames
	// are expanded into their stamped sub-records.
	Records []Record
	// Frames is how many on-disk record frames the valid prefix holds
	// (a batch frame counts once however many sub-records it carries).
	Frames int64
	// ValidLen is the byte length of the valid prefix (header plus
	// every intact record); Torn reports whether bytes beyond it were
	// discarded (a truncated or corrupt trailing record).
	ValidLen int64
	Torn     bool
}

// Replay decodes a complete WAL image. Header-level corruption is an
// error (nothing can be trusted); record-level corruption is not —
// decoding stops at the last valid record and Torn is set, which is
// the crash-mid-append recovery story. Replay never panics on
// arbitrary input.
func Replay(data []byte) (*Replayed, error) {
	h, off, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	out := &Replayed{Header: h, ValidLen: int64(off)}
	for off < len(data) {
		recs, n, ok := decodeRecord(data, off, h.Dim, out.Records)
		if !ok {
			out.Torn = true
			return out, nil
		}
		out.Records = recs
		out.Frames++
		off += n
		out.ValidLen = int64(off)
	}
	return out, nil
}

// ReplayFile reads and decodes path.
func ReplayFile(path string) (*Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Replay(data)
}

// Log is an open WAL accepting appends. Not safe for concurrent use;
// the serving layer serializes dataset mutations anyway.
type Log struct {
	f        *os.File
	path     string
	dim      int
	size     int64
	records  int64
	policy   SyncPolicy
	syncs    int64
	dirty    bool
	lastSync time.Time
}

// syncDir fsyncs the directory holding path, making a just-completed
// rename durable (see the package-level ordering contract). Some
// filesystems refuse fsync on a directory handle; that is reported,
// not ignored, because silently skipping it would reintroduce the
// lost-rename window this exists to close.
func syncDir(path string) error {
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Create atomically writes a fresh log containing only the header and
// opens it for appending. The write follows the full ordering
// contract — temp file, fsync, rename, directory fsync — so a crash
// at any point leaves either no log or a complete, durably named one.
func Create(path string, h Header, policy SyncPolicy) (*Log, error) {
	if h.Dim < 1 {
		return nil, fmt.Errorf("wal: create: dimensionality %d", h.Dim)
	}
	buf := encodeHeader(h)
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return nil, err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return nil, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return nil, err
	}
	if err := syncDir(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, path: path, dim: h.Dim, size: int64(len(buf)), policy: policy, lastSync: time.Now()}, nil
}

// Open validates an existing log, replays it, truncates any torn tail
// (so the next append starts on a clean boundary) and returns the log
// positioned for appending plus everything replayed.
func Open(path string, policy SyncPolicy) (*Log, *Replayed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rep, err := Replay(data)
	if err != nil {
		return nil, nil, err
	}
	if rep.Torn {
		if err := os.Truncate(path, rep.ValidLen); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Log{
		f:        f,
		path:     path,
		dim:      rep.Header.Dim,
		size:     rep.ValidLen,
		records:  rep.Frames,
		policy:   policy,
		lastSync: time.Now(),
	}, rep, nil
}

// Path returns the file path of the log.
func (l *Log) Path() string { return l.path }

// Size returns the current byte length of the valid log.
func (l *Log) Size() int64 { return l.size }

// Records returns how many record frames the log holds (replayed +
// appended); a batch frame counts once.
func (l *Log) Records() int64 { return l.records }

// Syncs returns how many fsyncs this log has issued since it was
// opened — the numerator of the bench lane's fsyncs-per-row metric.
func (l *Log) Syncs() int64 { return l.syncs }

// syncNow flushes to stable storage and advances the sync clock.
func (l *Log) syncNow() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// append frames, writes and (under SyncAlways) syncs one record.
func (l *Log) append(typ RecordType, payload []byte) error {
	buf := encodeRecord(typ, payload)
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(len(buf))
	l.records++
	l.dirty = true
	if l.policy.Mode == SyncAlways {
		return l.syncNow()
	}
	return nil
}

// Commit is the group-commit durability point, called once per
// drained mutation batch after its records are written. SyncAlways
// already synced per record (no-op); SyncBatch fsyncs now; under
// SyncInterval the fsync happens only when the window has elapsed.
func (l *Log) Commit() error {
	switch l.policy.Mode {
	case SyncAlways:
		return nil
	case SyncInterval:
		if !l.dirty || time.Since(l.lastSync) < l.policy.Interval {
			return nil
		}
	}
	if !l.dirty {
		return nil
	}
	return l.syncNow()
}

// AppendRows journals an append of rows, the first of which received
// stable ID firstID. Rows must match the log's dimensionality and be
// finite — the same validation replay applies.
func (l *Log) AppendRows(firstID int64, rows [][]float64) error {
	if err := validateAppend(firstID, rows, l.dim); err != nil {
		return err
	}
	return l.append(RecordAppend, encodeAppendPayload(firstID, rows, l.dim))
}

// AppendDelete journals a deletion of stable IDs in [fromID, toID).
func (l *Log) AppendDelete(fromID, toID int64) error {
	if fromID < 0 || toID < fromID {
		return fmt.Errorf("wal: delete: invalid ID range [%d,%d)", fromID, toID)
	}
	return l.append(RecordDelete, encodeDeletePayload(fromID, toID))
}

// AppendBatch journals a drained mutation batch as one RecordBatch
// frame: the ingest stamp (Unix nanoseconds, must be non-negative)
// plus each record's payload, under a single CRC. Only RecordAppend
// and RecordDelete records are accepted; every one is validated with
// the same rules as its single-record form before any bytes are
// written, so a bad entry poisons nothing.
func (l *Log) AppendBatch(stamp int64, recs []Record) error {
	if stamp < 0 {
		return fmt.Errorf("wal: batch: negative stamp")
	}
	if len(recs) == 0 {
		return fmt.Errorf("wal: batch: no records")
	}
	for i, rec := range recs {
		switch rec.Type {
		case RecordAppend:
			if err := validateAppend(rec.FirstID, rec.Rows, l.dim); err != nil {
				return fmt.Errorf("wal: batch record %d: %w", i, err)
			}
		case RecordDelete:
			if rec.FromID < 0 || rec.ToID < rec.FromID {
				return fmt.Errorf("wal: batch record %d: invalid ID range [%d,%d)", i, rec.FromID, rec.ToID)
			}
		default:
			return fmt.Errorf("wal: batch record %d: type %d not batchable", i, rec.Type)
		}
	}
	payload := make([]byte, 0, 12+len(recs)*subFrame)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(stamp))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(recs)))
	for _, rec := range recs {
		var sub []byte
		if rec.Type == RecordAppend {
			sub = encodeAppendPayload(rec.FirstID, rec.Rows, l.dim)
		} else {
			sub = encodeDeletePayload(rec.FromID, rec.ToID)
		}
		payload = append(payload, byte(rec.Type))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(sub)))
		payload = append(payload, sub...)
	}
	return l.append(RecordBatch, payload)
}

// Sync flushes the log to stable storage unconditionally.
func (l *Log) Sync() error { return l.syncNow() }

// Close flushes any deferred writes and closes the underlying file.
// The log is unusable afterwards.
func (l *Log) Close() error {
	if l.dirty {
		if err := l.syncNow(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}
