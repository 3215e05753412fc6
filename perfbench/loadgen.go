package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The load generator is open loop: every request has an intended send
// time fixed by the schedule, and its latency is measured from that
// time, not from when it was actually sent. A stall therefore charges
// its delay to every request queued behind it instead of hiding it
// (coordinated omission). Each connection is one worker on a locked OS
// thread that takes the next request in schedule order, sleeps until
// its intended time with nanosleep (Go's timer sleeps round sub-ms
// waits up to a millisecond), sends it and reads the reply.

// Result is one request's outcome. Times are offsets from the run's
// common base, so results of successive phases share one timeline.
type Result struct {
	Req      *Request
	Intended time.Duration
	// Free is when the worker that sent it became free to take it; the
	// generator's own lag is Sent - max(Intended, Free).
	Free   time.Duration
	Sent   time.Duration
	Done   time.Duration
	Status int
	Body   []byte
	Err    error
}

// Latency is the time from intended send to completed reply.
func (r *Result) Latency() time.Duration { return r.Done - r.Intended }

// Service is the time from actual send to completed reply.
func (r *Result) Service() time.Duration { return r.Done - r.Sent }

// Lag is how late the generator itself sent the request.
func (r *Result) Lag() time.Duration { return r.Sent - max(r.Intended, r.Free) }

// OK reports an answered request (HTTP 200).
func (r *Result) OK() bool { return r.Err == nil && r.Status == http.StatusOK }

// Generator drives one server over a fixed set of connections.
type Generator struct {
	Addr    string
	Conns   int
	Timeout time.Duration
	// Base is the common time origin of every phase's results.
	Base time.Time
}

// Run sends the schedule, which starts at the phase's first intended
// time from now, and returns one result per item.
func (g *Generator) Run(items []Item) []Result {
	res := make([]Result, len(items))
	// No collection runs while a phase is timed: one full collection
	// beforehand, none during. A phase holds at most a few tens of
	// thousands of small replies.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := time.Now().Add(2 * time.Millisecond)
	off := start.Sub(g.Base)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < g.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.worker(items, res, start, off, &next)
		}()
	}
	wg.Wait()
	return res
}

func (g *Generator) worker(items []Item, res []Result, start time.Time, off time.Duration, next *atomic.Int64) {
	runtime.LockOSThread()
	// A 1 ns timer slack makes nanosleep wake on time rather than
	// within the default 50 µs window; it is reset before the thread
	// returns to the runtime's pool.
	setTimerSlack(1)
	defer func() {
		setTimerSlack(0)
		runtime.UnlockOSThread()
	}()
	var conn net.Conn
	var br *bufio.Reader
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	free := time.Since(g.Base)
	for {
		i := int(next.Add(1) - 1)
		if i >= len(items) {
			return
		}
		it := items[i]
		sleepUntil(start.Add(it.At))
		r := &res[i]
		r.Req, r.Intended, r.Free = it.Req, off+it.At, free
		if conn == nil {
			c, err := net.DialTimeout("tcp", g.Addr, g.Timeout)
			if err != nil {
				r.Sent = time.Since(g.Base)
				r.Done, r.Err = r.Sent, err
				free = r.Done
				continue
			}
			conn, br = c, bufio.NewReaderSize(c, 64<<10)
		}
		r.Sent = time.Since(g.Base)
		r.Status, r.Body, r.Err = roundTrip(conn, br, it.Req.wire, g.Timeout)
		r.Done = time.Since(g.Base)
		free = r.Done
		if r.Err != nil {
			conn.Close()
			conn = nil
		}
	}
}

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// setTimerSlack sets the calling thread's timer slack (0 = the
// default). A failure leaves the default, which only costs precision.
func setTimerSlack(ns int) {
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, uintptr(ns), 0)
}

// roundTrip writes one pre-encoded request and reads its response.
func roundTrip(conn net.Conn, br *bufio.Reader, wire []byte, timeout time.Duration) (int, []byte, error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// sleepUntil blocks the calling thread until t. The raw syscall keeps
// the worker's P while it sleeps, so waking never waits for the Go
// scheduler to hand a P back through another, possibly descheduled,
// thread. It resumes after signal interruptions (the Go runtime
// preempts with signals).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0) // EINTR: sleep the rest
	}
}
