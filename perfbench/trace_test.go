package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
// overlapping children count once, a child sticking out of its parent
// counts only inside it, and a grandchild is charged to its own parent.
func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []*Span{
		{ID: 1, Job: 7, Name: "job", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Job: 7, Name: "a", Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Job: 7, Name: "b", Start: at(30), End: at(60)},
		{ID: 4, Parent: 1, Job: 7, Name: "c", Start: at(90), End: at(120)},
		{ID: 5, Parent: 2, Job: 7, Name: "a1", Start: at(15), End: at(20)},
	}
	want := map[int]time.Duration{
		1: 40 * time.Millisecond, // 100 - [10,60] - [90,100]
		2: 25 * time.Millisecond, // 30 - 5
		3: 30 * time.Millisecond,
		4: 30 * time.Millisecond,
		5: 5 * time.Millisecond,
	}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %v, want %v", id, got[id], w)
		}
	}
	table := byName(spans)
	if s := table.medianSelf("job"); s != 0.040 {
		t.Errorf("median self of job = %v s, want 0.040", s)
	}
	if d := table.medianDur("missing"); d != 0 {
		t.Errorf("median duration of an unrecorded span = %v, want 0", d)
	}
}

// TestTracerLinksSpans checks that recorded spans carry their job and
// parent, and that a nil tracer records nothing.
func TestTracerLinksSpans(t *testing.T) {
	tr := &Tracer{}
	root := tr.Begin(3, nil, "job")
	child := tr.Begin(3, root, "kmer.count")
	child.Finish(map[string]float64{"kmers": 10})
	root.Finish(nil)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Job != 3 || spans[1].Counts["kmers"] != 10 {
		t.Fatalf("spans not linked: %+v %+v", spans[0], spans[1])
	}
	var off *Tracer
	if s := off.Begin(1, nil, "job"); s != nil {
		t.Fatal("nil tracer recorded a span")
	}
	if len(off.Spans()) != 0 {
		t.Fatal("nil tracer returned spans")
	}
}
