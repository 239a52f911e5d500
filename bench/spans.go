package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Req is the id of the root span of the request (or
// experiment) the interval belongs to, so all spans of one request
// share it; a root span has Parent 0 and Req equal to its own ID.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the workload ends. It is used
// from one goroutine: the load generator is a single closed loop.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(parent int64, name string) int64 {
	id := int64(len(r.spans) + 1)
	req := id
	if parent != 0 {
		req = r.spans[parent-1].Req
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int64) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
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

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups the self times of spans by span name, in
// microseconds.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID])/1e3)
	}
	return out
}

// adopt appends the spans another process recorded, renumbered after
// this recorder's own. Their times stay relative to that process's
// start.
func (r *recorder) adopt(spans []span) {
	off := int64(len(r.spans))
	for _, s := range spans {
		s.ID += off
		s.Req += off
		if s.Parent != 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
}
