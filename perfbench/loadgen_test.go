package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStallIsChargedToQueuedRequests drives a fake server that answers
// one request at a time and stalls once. Every request scheduled during
// the stall waits behind it, and open-loop latency, timed from the
// intended send time, must show that wait even though each request's
// own service time is short.
func TestStallIsChargedToQueuedRequests(t *testing.T) {
	const stall = 100 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if n.Add(1) == 20 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	const gap = time.Millisecond
	items := make([]Item, 200)
	for i := range items {
		items[i] = Item{At: time.Duration(i) * gap, Req: rowQuery(i)}
	}
	g := &Generator{Addr: strings.TrimPrefix(srv.URL, "http://"), Conns: 2, Timeout: 5 * time.Second, Base: time.Now()}
	res := g.Run(items)

	stallIdx := -1
	for i := range res {
		if !res[i].OK() {
			t.Fatalf("request %d failed: status %d, %v", i, res[i].Status, res[i].Err)
		}
		if res[i].Service() >= stall {
			stallIdx = i
		}
	}
	if stallIdx < 0 {
		t.Fatal("no request saw the stall")
	}
	stallEnd := res[stallIdx].Done
	charged := 0
	for i := stallIdx + 2; i < len(res); i++ {
		r := &res[i]
		if r.Intended >= stallEnd-5*gap {
			break
		}
		charged++
		// The wait behind the stall is in the latency...
		if want := stallEnd - r.Intended - 2*gap; r.Latency() < want {
			t.Errorf("request %d: latency %v, want at least %v (stall ended %v after it was due)", i, r.Latency(), want, stallEnd-r.Intended)
		}
		// ...not in the generator's own lag.
		if r.Lag() > 20*time.Millisecond {
			t.Errorf("request %d: generator lag %v", i, r.Lag())
		}
	}
	if charged < 50 {
		t.Fatalf("only %d requests were queued behind the stall", charged)
	}
}
