package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 40 * ms, Parent: 0}, // overlaps a
		{Name: "c", Start: 60 * ms, End: 70 * ms, Parent: 0},
		{Name: "c.1", Start: 61 * ms, End: 65 * ms, Parent: 3},
	}
	got := selfTimes(spans)
	want := []time.Duration{100*ms - 30*ms - 10*ms, 20 * ms, 20 * ms, 10*ms - 4*ms, 4 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: self %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorderNestsSpans(t *testing.T) {
	r := newRecorder(4)
	outer := r.begin("outer", 7)
	inner := r.begin("inner", 7)
	r.end(inner)
	r.end(outer)
	next := r.begin("next", 8)
	r.end(next)
	if r.spans[inner].Parent != outer || r.spans[outer].Parent != -1 || r.spans[next].Parent != -1 {
		t.Fatalf("parents: %+v", r.spans)
	}
	if self := selfTimes(r.spans); self[outer] > r.spans[outer].End-r.spans[outer].Start {
		t.Fatalf("self time exceeds duration")
	}
}
