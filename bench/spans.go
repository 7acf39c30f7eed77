package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request share
// Op; Parent is the index of the span that caused this one (-1 for the op
// itself). Est marks a span whose duration was not observed in place but
// replayed or reported by the server and positioned inside its parent.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder's epoch
	End    float64 `json:"end_s"`
	Est    bool    `json:"estimate,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// spanRec is the benchmark's in-memory span recorder. Every workload is one
// closed-loop caller, so spans are recorded from a single goroutine and the
// recorder needs no lock. A nil recorder records nothing: workloads call it
// unconditionally and the untraced run pays a nil check.
type spanRec struct {
	epoch time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{epoch: time.Now()} }

func (r *spanRec) now() float64 { return time.Since(r.epoch).Seconds() }

// begin opens a span and returns its id; -1 on a nil recorder.
func (r *spanRec) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: r.now()})
	return id
}

func (r *spanRec) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = r.now()
}

// add records a span whose interval is already known.
func (r *spanRec) add(name string, parent, op int, start, end float64, est bool) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end, Est: est})
	return id
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (children are clipped to the parent
// and overlapping children are counted once).
func selfTimes(spans []span) map[int]float64 {
	kids := map[int][][2]float64{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok || s.Parent == s.ID {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{lo, hi})
		}
	}
	out := make(map[int]float64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := 0.0, s.Start
		for _, c := range iv {
			if c[1] <= edge {
				continue
			}
			if c[0] > edge {
				edge = c[0]
			}
			covered += c[1] - edge
			edge = c[1]
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (r *spanRec) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
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
