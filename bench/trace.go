package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A tracer records spans around the bench's own calls into each layer.
// Spans stay in memory during the run and are written out at exit. A
// layer's self time is its span minus the part its children cover.
//
// All spans of one operation share its op id; a span's parent is the
// index of the span that caused it within the tracer, or -1 for the
// operation's root.

type span struct {
	name   string
	op     int32
	parent int32
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	// count is one counter sampled at the span's end (rows out, cache
	// hit as 0/1, search steps); its meaning belongs to the span name.
	count int64
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex // serve-open's clients record concurrently
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index, to be passed to end and as
// the parent of its children.
func (t *tracer) begin(name string, op int, parent int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: int32(op), parent: int32(parent), start: now, end: -1})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

func (t *tracer) end(i int, count int64) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[i].end = now
	t.spans[i].count = count
	t.mu.Unlock()
}

// add records a span whose boundaries were measured elsewhere (the
// server's own optimize and execute times, reported on the wire).
func (t *tracer) add(name string, op, parent int, start, dur time.Duration, count int64) int {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: int32(op), parent: int32(parent), start: start, end: start + dur, count: count})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// startOf returns when span i began.
func (t *tracer) startOf(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].start
}

// layerTimes aggregates the trace: per span name, every span's
// duration and self time (duration minus its children's).
type layerTimes struct {
	durations map[string][]float64 // microseconds
	self      map[string]float64   // total microseconds
}

func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{durations: map[string][]float64{}, self: map[string]float64{}}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue // never closed: the operation failed mid-way
		}
		d := s.end - s.start
		lt.durations[s.name] = append(lt.durations[s.name], us(d))
		lt.self[s.name] += us(d - children[i])
	}
	return lt
}

// traceFileOps bounds how many operations' spans the trace file holds;
// a point-hot run records several hundred thousand spans, and the first
// few thousand operations read the same as the rest.
const traceFileOps = 2000

// write stores the spans of the first traceFileOps operations as JSON
// lines: {"op":..,"span":..,"parent":..,"name":..,"start_us":..,"end_us":..,"count":..}.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Op      int32   `json:"op"`
		Span    int     `json:"span"`
		Parent  int32   `json:"parent"`
		Name    string  `json:"name"`
		StartUS float64 `json:"start_us"`
		EndUS   float64 `json:"end_us"`
		Count   int64   `json:"count"`
	}
	for i, s := range t.spans {
		if s.op >= traceFileOps || s.end < 0 {
			continue
		}
		if err := enc.Encode(line{s.op, i, s.parent, s.name, us(s.start), us(s.end), s.count}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
