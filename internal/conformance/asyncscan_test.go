package conformance

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// The async scan-job path must be a pure transport change: a scan
// submitted via POST /jobs/scan and polled to completion returns
// exactly the bytes the synchronous POST /scan answers for the same
// request on the same preprocessed miner — for both k-NN backends.
// Only elapsed_ms (wall time) may differ. This is the differential
// spec guarding the jobs subsystem against answer drift: the job
// runner threads a progress callback and its own context through
// core.Miner.ScanAll, and none of that may perturb results.

// scanBody mirrors the /scan JSON response for comparison; elapsed_ms
// is deliberately omitted so DeepEqual ignores wall time.
type scanBody struct {
	Hits []struct {
		Index         int     `json:"index"`
		Minimal       [][]int `json:"minimal"`
		OutlyingCount int     `json:"outlying_count"`
		FullSpaceOD   float64 `json:"full_space_od"`
	} `json:"hits"`
	HitCount   int `json:"hit_count"`
	MaxResults int `json:"max_results"`
}

func TestAsyncScanJobMatchesSyncScan(t *testing.T) {
	sp := DefaultSpecs()[0]
	for _, backend := range Backends() {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			t.Parallel()
			m, err := sp.Miner(backend, core.PolicyTSF)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(m, server.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = srv.Close(ctx)
			})
			h := srv.Handler()
			body := `{"sort_by_severity": true}`

			var sync scanBody
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/scan", strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("sync scan: status %d (body %s)", rec.Code, rec.Body.String())
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &sync); err != nil {
				t.Fatal(err)
			}

			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/jobs/scan", strings.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit: status %d (body %s)", rec.Code, rec.Body.String())
			}
			var submitted struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &submitted); err != nil {
				t.Fatal(err)
			}

			var async scanBody
			deadline := time.Now().Add(60 * time.Second)
			for {
				if time.Now().After(deadline) {
					t.Fatal("job never finished")
				}
				rec = httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+submitted.ID, nil))
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
					if err := json.Unmarshal(poll.Result, &async); err != nil {
						t.Fatal(err)
					}
					break
				}
				if poll.State == "failed" || poll.State == "cancelled" {
					t.Fatalf("job reached %s: %s", poll.State, poll.Error)
				}
				time.Sleep(2 * time.Millisecond)
			}

			if !reflect.DeepEqual(sync, async) {
				t.Fatalf("async scan job diverged from sync /scan on %s:\n sync  %+v\n async %+v",
					backend, sync, async)
			}
		})
	}
}
