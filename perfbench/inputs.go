package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/vector"
)

// Everything a run sends is derived from the seed alone: the dataset
// CSV hosserve loads and the request stream the generator replays. The
// program under test receives only these generated inputs.

// reqKind is a request's endpoint.
type reqKind uint8

const (
	kindQuery reqKind = iota
	kindAppend
	kindDelete
)

// Request is one pre-encoded HTTP request plus what the answer check
// needs to know about it.
type Request struct {
	Kind         reqKind
	Method, Path string
	// Index is the queried dataset row, or -1 for an external point.
	Index int
	// Point is the external query point; Key identifies it in the
	// explain pool (the reference answers each pool entry once).
	Point []float64
	Key   int
	// Rows are an append's rows; KeepLast is a delete's row count.
	Rows     [][]float64
	KeepLast int
	Body     []byte
	// wire is the full HTTP/1.1 request.
	wire []byte
}

func newRequest(kind reqKind, method, path string, body []byte) *Request {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", method, path, len(body))
	b.Write(body)
	return &Request{Kind: kind, Method: method, Path: path, Index: -1, Key: -1, Body: body, wire: b.Bytes()}
}

func rowQuery(idx int) *Request {
	r := newRequest(kindQuery, "POST", "/query", []byte(`{"index":`+strconv.Itoa(idx)+`}`))
	r.Index = idx
	return r
}

func pointQuery(key int, p []float64) *Request {
	body, _ := json.Marshal(map[string][]float64{"point": p}) // float slices always marshal
	r := newRequest(kindQuery, "POST", "/query", body)
	r.Point, r.Key = p, key
	return r
}

func appendRequest(rows [][]float64) *Request {
	body, _ := json.Marshal(map[string][][]float64{"rows": rows})
	r := newRequest(kindAppend, "POST", "/datasets/default/append", body)
	r.Rows = rows
	return r
}

func deleteRequest(keepLast int) *Request {
	r := newRequest(kindDelete, "DELETE", "/datasets/default/rows", []byte(`{"keep_last":`+strconv.Itoa(keepLast)+`}`))
	r.KeepLast = keepLast
	return r
}

// Inputs is a workload's generated inputs for one seed.
type Inputs struct {
	CSV []byte
	// DS is the dataset exactly as hosserve parses it from CSV.
	DS *vector.Dataset
}

// makeInputs generates the workload's dataset: the repository's
// synthetic generator (Gaussian clusters with a few planted outliers).
func makeInputs(w *Workload, seed int64) (*Inputs, error) {
	ds, _, err := datagen.GenerateSynthetic(datagen.SyntheticConfig{N: w.N, D: w.D, NumOutliers: 5, Seed: seed})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dataio.WriteCSV(&buf, ds, true); err != nil {
		return nil, err
	}
	parsed, err := dataio.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	return &Inputs{CSV: buf.Bytes(), DS: parsed}, nil
}

// Item is one scheduled request: At is its intended send time from the
// start of its phase.
type Item struct {
	At  time.Duration
	Req *Request
}

// Stream yields a workload's requests in a fixed order. Successive
// phases of a run (warm-up, timed phase, ladder probes) draw successive
// stretches of the same stream.
type Stream struct {
	w    *Workload
	ds   *vector.Dataset
	rng  *rand.Rand
	zipf *rand.Zipf
	hot  []int
	pool []*Request
	next int
}

// newStream seeds the workload's request stream. The stream seed is
// derived from, but distinct from, the dataset seed.
func newStream(w *Workload, ds *vector.Dataset, seed int64) *Stream {
	s := &Stream{w: w, ds: ds, rng: rand.New(rand.NewSource(seed*7919 + 17))}
	switch w.Kind {
	case "hot":
		s.hot = s.rng.Perm(ds.N())[:w.HotRows]
		s.zipf = rand.NewZipf(s.rng, w.ZipfS, 1, uint64(w.HotRows-1))
	case "explain":
		s.pool = make([]*Request, w.Pool)
		for i := range s.pool {
			s.pool[i] = pointQuery(i, s.outlyingPoint())
		}
	}
	return s
}

// outlyingPoint is a dataset row pushed beyond every cluster centre in
// one or two seeded dimensions.
func (s *Stream) outlyingPoint() []float64 {
	p := append([]float64(nil), s.ds.Point(s.rng.Intn(s.ds.N()))...)
	dims := s.rng.Perm(len(p))[:1+s.rng.Intn(2)]
	for _, j := range dims {
		p[j] = 14 + 4*s.rng.Float64()
	}
	return p
}

// nextQuery returns the stream's next query.
func (s *Stream) nextQuery() *Request {
	defer func() { s.next++ }()
	switch s.w.Kind {
	case "hot":
		return rowQuery(s.hot[s.zipf.Uint64()])
	case "explain":
		return s.pool[s.next%len(s.pool)]
	default:
		return rowQuery(s.rng.Intn(s.w.N))
	}
}

// newRows draws an append's rows: seeded dataset rows with Gaussian
// noise, so appended rows look like the data already served.
func (s *Stream) newRows() [][]float64 {
	rows := make([][]float64, s.w.AppendRows)
	for i := range rows {
		base := s.ds.Point(s.rng.Intn(s.ds.N()))
		r := make([]float64, len(base))
		for j := range r {
			r[j] = base[j] + 0.5*s.rng.NormFloat64()
		}
		rows[i] = r
	}
	return rows
}

// Phase schedules dur of the workload at the given scale: the offered
// query rate for the query workloads, a multiplier of the whole mix for
// ingest. Requests are evenly spaced (open loop, constant rate).
func (s *Stream) Phase(scale float64, dur time.Duration) []Item {
	if s.w.Kind == "ingest" {
		return s.ingestPhase(scale, dur)
	}
	n := int(scale * dur.Seconds())
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{At: time.Duration(float64(i) / scale * float64(time.Second)), Req: s.nextQuery()}
	}
	return items
}

// ingestPhase merges the ingest mix into one schedule. One cycle holds
// DeletesEvery appends and then one keep_last delete, evenly spaced so
// that at the base rate no two mutations overlap, beside evenly spaced
// queries; mult compresses the cycle in time.
func (s *Stream) ingestPhase(mult float64, dur time.Duration) []Item {
	w := s.w
	cycleS := float64(w.DeletesEvery) / w.AppendsPerS / mult
	qPerCycle := int(w.Rate*float64(w.DeletesEvery)/w.AppendsPerS + 0.5)
	slot := cycleS / float64(w.DeletesEvery+1)
	var items []Item
	for c := 0; float64(c)*cycleS < dur.Seconds(); c++ {
		base := float64(c) * cycleS
		var cyc []Item
		for q := 0; q < qPerCycle; q++ {
			cyc = append(cyc, Item{At: secs(base + cycleS*float64(q)/float64(qPerCycle)), Req: s.nextQuery()})
		}
		for a := 0; a <= w.DeletesEvery; a++ {
			req := deleteRequest(w.KeepLast)
			if a < w.DeletesEvery {
				req = appendRequest(s.newRows())
			}
			cyc = append(cyc, Item{At: secs(base + slot*(float64(a)+0.5)), Req: req})
		}
		sort.SliceStable(cyc, func(i, j int) bool { return cyc[i].At < cyc[j].At })
		items = append(items, cyc...)
	}
	return items
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
