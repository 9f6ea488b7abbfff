package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans of one job share Job; Parent is the ID of the span that caused
// this one (0 for a job's root). Counts holds work counters read at the
// same boundary, so ratios are taken where the work happened.
type Span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Job    int                `json:"job"`
	Name   string             `json:"name"`
	Start  time.Time          `json:"start"`
	End    time.Time          `json:"end"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// Duration is the span's wall time.
func (s *Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// Tracer keeps every span in memory until the run ends. A nil *Tracer
// records nothing, so the untraced path calls the same code.
type Tracer struct {
	mu    sync.Mutex
	spans []*Span
}

// Begin opens a span under parent (nil for a job root).
func (t *Tracer) Begin(job int, parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{Job: job, Name: name, Start: time.Now()}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Add records a span whose bounds were measured elsewhere, such as a stage
// length a report returned; it is laid out from start.
func (t *Tracer) Add(job int, parent *Span, name string, start time.Time, d time.Duration) *Span {
	s := t.Begin(job, parent, name)
	if s == nil {
		return nil
	}
	s.Start, s.End = start, start.Add(d)
	return s
}

// Finish closes s and attaches counts (either may be nil).
func (s *Span) Finish(counts map[string]float64) {
	if s == nil {
		return
	}
	s.End = time.Now()
	s.Counts = counts
}

// Spans returns a snapshot of every recorded span in creation order.
func (t *Tracer) Spans() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.spans...)
}

// SelfTimes maps each span ID to its self time: the span's duration minus
// the part of its interval covered by its children. Overlapping children
// are counted once, and child time outside the parent is ignored.
func SelfTimes(spans []*Span) map[int]time.Duration {
	children := map[int][]*Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Duration() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals clipped to
// [from, to].
func covered(from, to time.Time, kids []*Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// spanStats is one span name's samples across jobs.
type spanStats struct {
	dur, self []float64 // seconds
	counts    map[string][]float64
}

// spanTable holds each span name's samples.
type spanTable map[string]*spanStats

// byName groups spans by name with their durations, self times and counts.
func byName(spans []*Span) spanTable {
	self := SelfTimes(spans)
	out := spanTable{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{counts: map[string][]float64{}}
			out[s.Name] = st
		}
		st.dur = append(st.dur, s.Duration().Seconds())
		st.self = append(st.self, self[s.ID].Seconds())
		for k, v := range s.Counts {
			st.counts[k] = append(st.counts[k], v)
		}
	}
	return out
}

// medianDur is the median duration in seconds of the spans named name
// (0 when the run recorded none).
func (m spanTable) medianDur(name string) float64 {
	if st := m[name]; st != nil {
		return median(st.dur)
	}
	return 0
}

// medianSelf is the median self time in seconds of the spans named name.
func (m spanTable) medianSelf(name string) float64 {
	if st := m[name]; st != nil {
		return median(st.self)
	}
	return 0
}

// medianCount is the median of one counter attached to the spans named name.
func (m spanTable) medianCount(name, counter string) float64 {
	if st := m[name]; st != nil {
		return median(st.counts[counter])
	}
	return 0
}

// sumCount is the total of one counter over the spans named name.
func (m spanTable) sumCount(name, counter string) float64 {
	if st := m[name]; st != nil {
		return sum(st.counts[counter])
	}
	return 0
}

// writeSpans saves every span as JSON, the run's trace artefact.
func writeSpans(path string, spans []*Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
