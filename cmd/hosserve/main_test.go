package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataio"
	"repro/internal/server"
)

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

func setupServerFromArgs(t *testing.T, args ...string) *server.Server {
	t.Helper()
	var errBuf bytes.Buffer
	cc, err := parseFlags(args, &errBuf)
	if err != nil {
		t.Fatalf("parseFlags: %v (%s)", err, errBuf.String())
	}
	srv, _, _, err := setup(cc, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv
}

func setupFromArgs(t *testing.T, args ...string) http.Handler {
	t.Helper()
	return setupServerFromArgs(t, args...).Handler()
}

func TestSetupFromCSV(t *testing.T) {
	h := setupFromArgs(t, "-data", writeFixture(t), "-k", "4", "-tq", "0.95")
	req := httptest.NewRequest("POST", "/query", strings.NewReader(`{"index": 0}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if _, ok := resp["minimal"]; !ok {
		t.Fatalf("response missing minimal: %s", rec.Body.String())
	}
}

func TestSetupFromGenerators(t *testing.T) {
	for _, gen := range []string{"synthetic", "uniform", "athlete", "medical", "nba"} {
		h := setupFromArgs(t, "-gen", gen, "-n", "150", "-d", "4", "-k", "4", "-tq", "0.95")
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: healthz status %d", gen, rec.Code)
		}
	}
}

func TestSetupSharded(t *testing.T) {
	h := setupFromArgs(t, "-gen", "synthetic", "-n", "200", "-d", "4", "-k", "4",
		"-tq", "0.95", "-shards", "4", "-partitioner", "hash")
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Shards != 4 {
		t.Fatalf("healthz shards = %d, want 4", health.Shards)
	}
}

// TestSetupStateRoundTrip: the preprocessed state (threshold and
// learned priors) survives a restart through the -data-dir snapshot —
// the restarted server needs no -t/-tq/-samples, reports the same
// threshold and answers identically.
func TestSetupStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	h1 := setupFromArgs(t, "-data", writeFixture(t), "-k", "4", "-tq", "0.95", "-samples", "8", "-data-dir", dir)
	if rec := doReq(t, h1, "POST", "/datasets/default/save", ""); rec.Code != http.StatusOK {
		t.Fatalf("save: %d (%s)", rec.Code, rec.Body.String())
	}
	h2 := setupFromArgs(t, "-data-dir", dir)
	threshold := func(h http.Handler) float64 {
		var health struct {
			Threshold float64 `json:"threshold"`
		}
		if err := json.Unmarshal(doReq(t, h, "GET", "/healthz", "").Body.Bytes(), &health); err != nil {
			t.Fatal(err)
		}
		return health.Threshold
	}
	if t1, t2 := threshold(h1), threshold(h2); t1 <= 0 || t1 != t2 {
		t.Fatalf("threshold across restart: %v then %v", t1, t2)
	}
	query := `{"index": 0, "include_all": true}`
	want := zeroElapsed(doReq(t, h1, "POST", "/query", query).Body.String())
	if got := zeroElapsed(doReq(t, h2, "POST", "/query", query).Body.String()); got != want {
		t.Fatalf("restored server answers differently:\n before: %s\n after:  %s", want, got)
	}
}

func TestNormalizeRescalesAdHocPoints(t *testing.T) {
	path := writeFixture(t)
	h := setupFromArgs(t, "-data", path, "-k", "4", "-tq", "0.95", "-normalize")
	// A raw-unit copy of a non-planted dataset row: with the transform
	// in place it lands exactly on that row (distance 0 to its nearest
	// neighbour), so it must NOT be an outlier in every subspace. The
	// planted outliers occupy the low indexes; row 50 is an inlier.
	ds, err := dataio.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := json.Marshal(map[string]any{"point": ds.Point(50), "include_all": true})
	req := httptest.NewRequest("POST", "/query", bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		IsOutlier     bool `json:"is_outlier"`
		OutlyingCount int  `json:"outlying_count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Without rescaling, a raw point against [0,1]-scaled data is an
	// outlier in all 2^d−1 subspaces.
	if resp.OutlyingCount == 15 {
		t.Fatal("raw-unit point evaluated unscaled against normalized data")
	}
}

func TestSetupErrors(t *testing.T) {
	fixture := writeFixture(t)
	cases := [][]string{
		{},                                      // no dataset source
		{"-data", "missing.csv"},                // unreadable file
		{"-gen", "nope"},                        // unknown generator
		{"-data", fixture, "-gen", "synthetic"}, // both sources
		{"-data", fixture},                      // no threshold
		{"-data", fixture, "-k", "0", "-tq", "0.9"}, // invalid K
	}
	for _, args := range cases {
		var errBuf bytes.Buffer
		cc, err := parseFlags(args, &errBuf)
		if err != nil {
			continue // flag-level rejection is fine too
		}
		if _, _, _, err := setup(cc, &errBuf); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestParseFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-backend", "nope"},
		{"-policy", "nope"},
		{"-partitioner", "nope"},
		{"-bogus"},
	} {
		var errBuf bytes.Buffer
		if _, err := parseFlags(args, &errBuf); err == nil {
			t.Errorf("args %v: expected flag error", args)
		}
	}
}

func TestHelpMentionsService(t *testing.T) {
	var errBuf bytes.Buffer
	_, _ = parseFlags([]string{"-h"}, &errBuf)
	for _, want := range []string{"-addr", "-cache", "-query-timeout", "-job-queue", "-job-workers", "/jobs/scan"} {
		if !strings.Contains(errBuf.String(), want) {
			t.Fatalf("usage missing %q:\n%s", want, errBuf.String())
		}
	}
}

// TestAsyncScanJobRoundTrip wires the -job-* flags through to the
// server and drives one async scan to completion over the handler.
func TestAsyncScanJobRoundTrip(t *testing.T) {
	h := setupFromArgs(t, "-gen", "synthetic", "-n", "150", "-d", "4", "-k", "4", "-tq", "0.95",
		"-job-queue", "2", "-job-workers", "1", "-job-ttl", "1m", "-job-timeout", "5m")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs/scan", strings.NewReader(`{"max_results": 5}`)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d (body %s)", rec.Code, rec.Body.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+sub.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("poll: status %d", rec.Code)
		}
		var poll struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &poll); err != nil {
			t.Fatal(err)
		}
		if poll.State == "done" {
			if len(poll.Result) == 0 {
				t.Fatal("done job has no result")
			}
			return
		}
		if poll.State == "failed" || poll.State == "cancelled" {
			t.Fatalf("job %s: %s", poll.State, poll.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
}

// lockedBuffer makes the serve goroutine's progress output safe to
// poll from the test goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeGracefulShutdown boots the real listener on an ephemeral
// port, makes one request, then cancels the context and expects a
// clean drain.
func TestServeGracefulShutdown(t *testing.T) {
	srv := setupServerFromArgs(t, "-gen", "synthetic", "-n", "150", "-d", "4", "-k", "4", "-tq", "0.95")
	ctx, cancel := context.WithCancel(context.Background())
	var out lockedBuffer
	done := make(chan error, 1)
	go func() { done <- serve(ctx, "127.0.0.1:0", srv, 30*time.Second, &out) }()

	// Wait for the listener line to learn the port.
	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "serving on ") {
			line := s[strings.Index(s, "serving on ")+len("serving on "):]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("server never reported its address: %q", out.String())
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP: %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down")
	}
	if !strings.Contains(out.String(), "bye") {
		t.Fatalf("missing shutdown message: %q", out.String())
	}
}

// TestDataDirRestartServesSavedDatasets is the acceptance criterion
// for warm-start serving: save the default and a loaded dataset into
// -data-dir, "restart" (a second process over the same directory, no
// -gen/-data), and the saved datasets answer without regeneration —
// the default synchronously from default.snap, the named one via a
// background warm-start job.
func TestDataDirRestartServesSavedDatasets(t *testing.T) {
	dir := t.TempDir()
	h1 := setupFromArgs(t, "-gen", "synthetic", "-n", "130", "-d", "4",
		"-k", "4", "-tq", "0.9", "-seed", "13", "-data-dir", dir)

	// Load a second dataset at runtime, then persist both.
	load := `{"name":"extra","gen":"synthetic","n":90,"d":3,"planted":2,"seed":5,"k":3,"tq":0.9}`
	if rec := doReq(t, h1, "POST", "/datasets/load", load); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d (%s)", rec.Code, rec.Body.String())
	}
	for _, name := range []string{"default", "extra"} {
		if rec := doReq(t, h1, "POST", "/datasets/"+name+"/save", ""); rec.Code != http.StatusOK {
			t.Fatalf("save %s: %d (%s)", name, rec.Code, rec.Body.String())
		}
	}
	wantDefault := doReq(t, h1, "POST", "/query", `{"index":7}`).Body.String()
	wantExtra := doReq(t, h1, "POST", "/query", `{"dataset":"extra","index":3}`).Body.String()

	// Restart: only -data-dir. No generator, no CSV, no thresholds.
	h2 := setupFromArgs(t, "-data-dir", dir)
	gotDefault := doReq(t, h2, "POST", "/query", `{"index":7}`).Body.String()
	if zeroElapsed(gotDefault) != zeroElapsed(wantDefault) {
		t.Fatalf("restored default answers differently:\n before: %s\n after:  %s", wantDefault, gotDefault)
	}
	// The extra dataset arrives via a warm-start job; poll for it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := doReq(t, h2, "POST", "/query", `{"dataset":"extra","index":3}`)
		if rec.Code == http.StatusOK {
			if zeroElapsed(rec.Body.String()) != zeroElapsed(wantExtra) {
				t.Fatalf("warm-started extra answers differently:\n before: %s\n after:  %s", wantExtra, rec.Body.String())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("extra dataset never warm-started: %d (%s)", rec.Code, rec.Body.String())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Conflicting flags with a default.snap present fail loudly.
	var errBuf bytes.Buffer
	cc, err := parseFlags([]string{"-data-dir", dir, "-tq", "0.9"}, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := setup(cc, &errBuf); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("conflicting -tq with default.snap: err = %v", err)
	}
}

// doReq is do() without the JSON decode, for raw-body comparisons.
func doReq(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// zeroElapsed blanks elapsed_ms timings for byte comparison.
var elapsedMsRe = regexp.MustCompile(`"elapsed_ms":[0-9.eE+-]+`)

func zeroElapsed(s string) string {
	return elapsedMsRe.ReplaceAllString(s, `"elapsed_ms":0`)
}

// TestNormalizedSnapshotKeepsPointTransform is the regression test
// for losing the ad-hoc-point rescaling across a snapshot restart: a
// -normalize server saves raw column ranges into default.snap, and
// the restored server must rescale raw-unit client vectors exactly as
// the original did (without stats a raw point would look maximally
// distant from the [0,1]-scaled data and answer differently).
func TestNormalizedSnapshotKeepsPointTransform(t *testing.T) {
	dir := t.TempDir()
	csvPath := writeFixture(t)
	h1 := setupFromArgs(t, "-data", csvPath, "-normalize", "-k", "4", "-tq", "0.9", "-data-dir", dir)
	if rec := doReq(t, h1, "POST", "/datasets/default/save", ""); rec.Code != http.StatusOK {
		t.Fatalf("save: %d (%s)", rec.Code, rec.Body.String())
	}
	// A raw-unit point (the fixture is N(≈cluster centers, σ) data far
	// outside [0,1]); the transform decides its entire answer.
	probe := `{"point": [40, -3, 17, 8]}`
	want := doReq(t, h1, "POST", "/query", probe).Body.String()

	h2 := setupFromArgs(t, "-data-dir", dir)
	got := doReq(t, h2, "POST", "/query", probe).Body.String()
	if zeroElapsed(got) != zeroElapsed(want) {
		t.Fatalf("restored server answers the raw point differently (transform lost):\n before: %s\n after:  %s", want, got)
	}
}

// TestSnapshotRestoreRejectsSupersededFlags: every flag the snapshot
// supplies is a hard conflict when set explicitly — including the
// ones whose values coincide with flag defaults.
func TestSnapshotRestoreRejectsSupersededFlags(t *testing.T) {
	dir := t.TempDir()
	h1 := setupFromArgs(t, "-gen", "synthetic", "-n", "80", "-d", "3", "-k", "3", "-tq", "0.9", "-data-dir", dir)
	if rec := doReq(t, h1, "POST", "/datasets/default/save", ""); rec.Code != http.StatusOK {
		t.Fatalf("save: %d", rec.Code)
	}
	for _, extra := range [][]string{
		{"-k", "5"}, {"-shards", "4"}, {"-backend", "auto"}, {"-policy", "tsf"},
		{"-seed", "1"}, {"-normalize"}, {"-tq", "0.9"},
	} {
		var errBuf bytes.Buffer
		cc, err := parseFlags(append([]string{"-data-dir", dir}, extra...), &errBuf)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := setup(cc, &errBuf); err == nil || !strings.Contains(err.Error(), "conflicts") {
			t.Fatalf("flags %v silently accepted on snapshot restore: err = %v", extra, err)
		}
	}
}

// TestWarmStartRegistersUnderFileStem: a renamed snapshot file serves
// under its stem, not its stored internal name — skip-check and
// registration share one key, so renames cannot cause permanently
// failing jobs on every boot.
func TestWarmStartRegistersUnderFileStem(t *testing.T) {
	dir := t.TempDir()
	h1 := setupFromArgs(t, "-gen", "synthetic", "-n", "80", "-d", "3", "-k", "3", "-tq", "0.9", "-data-dir", dir)
	load := `{"name":"orig","gen":"synthetic","n":70,"d":3,"planted":2,"seed":4,"k":3,"tq":0.9}`
	if rec := doReq(t, h1, "POST", "/datasets/load", load); rec.Code != http.StatusCreated {
		t.Fatalf("load: %d", rec.Code)
	}
	if rec := doReq(t, h1, "POST", "/datasets/orig/save", ""); rec.Code != http.StatusOK {
		t.Fatalf("save: %d", rec.Code)
	}
	// Rename the file; its internal Name stays "orig".
	if err := os.Rename(filepath.Join(dir, "orig.snap"), filepath.Join(dir, "renamed.snap")); err != nil {
		t.Fatal(err)
	}
	h2 := setupFromArgs(t, "-gen", "synthetic", "-n", "80", "-d", "3", "-k", "3", "-tq", "0.9", "-data-dir", dir)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if rec := doReq(t, h2, "POST", "/query", `{"dataset":"renamed","index":1}`); rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("renamed snapshot never served under its stem")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And the stored name did NOT get registered.
	if rec := doReq(t, h2, "POST", "/query", `{"dataset":"orig","index":1}`); rec.Code != http.StatusNotFound {
		t.Fatalf("stored name registered despite rename: %d", rec.Code)
	}
}

// TestPprofEndpoint smoke-tests the -pprof-addr debug listener: it
// comes up on its own port, serves the pprof index and a profile, and
// the stop function tears it down.
func TestPprofEndpoint(t *testing.T) {
	var out lockedBuffer
	stop, err := startPprof("127.0.0.1:0", &out)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	m := regexp.MustCompile(`pprof on http://(\S+)/debug/pprof/`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("startPprof did not report its address: %q", out.String())
	}
	base := "http://" + m[1]

	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), "goroutine") {
		t.Fatalf("pprof index does not list profiles: %q", string(body[:n]))
	}

	resp, err = http.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heap profile: %d", resp.StatusCode)
	}

	stop()
	if _, err := http.Get(base + "/debug/pprof/"); err == nil {
		t.Fatal("pprof listener still up after stop")
	}
}

// TestPprofFlagRejectsBadAddr: an unusable -pprof-addr is a startup
// error, not a silent no-profiling run.
func TestPprofFlagRejectsBadAddr(t *testing.T) {
	if _, err := startPprof("256.256.256.256:99999", new(lockedBuffer)); err == nil {
		t.Fatal("startPprof accepted an unusable address")
	}
}
