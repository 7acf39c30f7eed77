// Package trace records VDP firings and renders execution traces in the
// style of the paper's Fig. 7: per-thread timelines where red is flat-tree
// panel work, orange is the corresponding trailing updates, and blue is
// binary-tree work. It also computes the overlap statistics that quantify
// why shifted domain boundaries pipeline better than fixed ones.
//
// Beyond firings, the recorder captures worker channel-wait intervals and
// proxy communication (sends, deliveries, the closing barrier), and each
// rank of a distributed run can snapshot its recorder into a Shard for
// gathering and merging at rank 0 (see shard.go, gather.go).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pulsarqr/internal/obs"
	"pulsarqr/internal/pulsar"
)

// EventKind classifies a recorded event. The zero value is a VDP firing so
// hand-built Event literals (tests, the simulator) keep their old meaning.
type EventKind uint8

const (
	KindFire EventKind = iota
	KindWait
	KindSend
	KindRecv
	KindBarrier
)

func (k EventKind) String() string {
	switch k {
	case KindFire:
		return "fire"
	case KindWait:
		return "wait"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindBarrier:
		return "barrier"
	}
	return "unknown"
}

// Classes of the non-fire events the recorder emits. Fire classes come from
// the VDPs themselves ("panel", "update", "binary", "binary-update").
const (
	ClassWait    = "wait"
	ClassSend    = "send"
	ClassRecv    = "recv"
	ClassBarrier = "barrier"
)

// ProxyThread is the Thread value of communication events: each node's
// proxy gets its own lane below the workers'.
const ProxyThread = -1

// Event is one recorded interval: a firing, a worker wait, or a proxy
// communication action.
type Event struct {
	Kind         EventKind
	Class        string
	Panel        int // panel index j from the VDP tuple; -1 for non-fire events
	Node, Thread int
	Peer         int           // comm events: remote rank (-1 for collectives); 0 otherwise
	Bytes        int64         // comm events: payload size
	Start, End   time.Duration // relative to the recorder's epoch
}

// DefaultCapacity is the recorder's default event bound.
const DefaultCapacity = 1 << 18

// recShards is the number of independent ring buffers a Recorder stripes
// events over to keep workers from serializing on one lock.
const recShards = 16

// Recorder collects runtime events into a bounded ring striped by worker
// lane (obs.StripedRing). It is safe for concurrent use by multiple workers;
// when the buffer is full the oldest events are overwritten and counted as
// drops.
type Recorder struct {
	t0ns atomic.Int64 // UnixNano of the first recorded start (the epoch)
	ring *obs.StripedRing[Event]
}

// NewRecorder returns an empty recorder bounded at DefaultCapacity.
func NewRecorder() *Recorder { return NewRecorderCap(DefaultCapacity) }

// NewRecorderCap returns an empty recorder holding at most capacity events
// (rounded up to a multiple of the stripe count); non-positive selects the
// default. Once full, new events overwrite the oldest and Drops counts the
// losses.
func NewRecorderCap(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: obs.NewStripedRing[Event](capacity, recShards)}
}

// Epoch returns the wall-clock origin (UnixNano) event times are relative
// to; zero until the first event is recorded.
func (r *Recorder) Epoch() int64 { return r.t0ns.Load() }

// Drops returns the number of events lost to the capacity bound.
func (r *Recorder) Drops() int64 { return r.ring.Drops() }

// Len returns the number of events currently held.
func (r *Recorder) Len() int { return r.ring.Len() }

// epoch pins the recorder's time origin to the first observed start and
// returns it.
func (r *Recorder) epoch(start time.Time) int64 {
	t0 := r.t0ns.Load()
	if t0 == 0 {
		r.t0ns.CompareAndSwap(0, start.UnixNano())
		t0 = r.t0ns.Load()
	}
	return t0
}

// lane stripes (node, thread) pairs over the ring buffers; +2 keeps the
// proxy lane (thread -1) non-negative.
func lane(node, thread int) uint { return uint(node*31 + thread + 2) }

// Hook adapts the recorder to the runtime's FireHook.
func (r *Recorder) Hook() func(pulsar.FireEvent) {
	return func(e pulsar.FireEvent) {
		t0 := r.epoch(e.Start)
		panel := -1
		if e.Tuple.Len() > 1 {
			panel = e.Tuple.At(1)
		}
		r.ring.Push(lane(e.Node, e.Thread), Event{
			Kind: KindFire, Class: e.Class, Panel: panel,
			Node: e.Node, Thread: e.Thread,
			Start: time.Duration(e.Start.UnixNano() - t0),
			End:   time.Duration(e.End.UnixNano() - t0),
		})
	}
}

// WaitHook adapts the recorder to the runtime's WaitHook (and Pool.OnWait).
func (r *Recorder) WaitHook() func(pulsar.WaitEvent) {
	return func(e pulsar.WaitEvent) {
		t0 := r.epoch(e.Start)
		r.ring.Push(lane(e.Node, e.Thread), Event{
			Kind: KindWait, Class: ClassWait, Panel: -1,
			Node: e.Node, Thread: e.Thread, Peer: -1,
			Start: time.Duration(e.Start.UnixNano() - t0),
			End:   time.Duration(e.End.UnixNano() - t0),
		})
	}
}

// CommHook adapts the recorder to the runtime's CommHook.
func (r *Recorder) CommHook() func(pulsar.CommEvent) {
	return func(e pulsar.CommEvent) {
		t0 := r.epoch(e.Start)
		kind, class := KindSend, ClassSend
		switch e.Kind {
		case pulsar.CommRecv:
			kind, class = KindRecv, ClassRecv
		case pulsar.CommBarrier:
			kind, class = KindBarrier, ClassBarrier
		}
		r.ring.Push(lane(e.Node, ProxyThread), Event{
			Kind: kind, Class: class, Panel: -1,
			Node: e.Node, Thread: ProxyThread,
			Peer: e.Peer, Bytes: int64(e.Bytes),
			Start: time.Duration(e.Start.UnixNano() - t0),
			End:   time.Duration(e.End.UnixNano() - t0),
		})
	}
}

// Events returns the recorded events, normalized so the earliest start is
// zero and sorted by start time.
func (r *Recorder) Events() []Event {
	out := r.ring.Snapshot(nil)
	// The epoch is the first start the racing CAS happened to pin, so a few
	// events may sit slightly before it; renormalize.
	var minStart time.Duration
	for _, e := range out {
		if e.Start < minStart {
			minStart = e.Start
		}
	}
	for i := range out {
		out[i].Start -= minStart
		out[i].End -= minStart
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// Timeline is an analyzed trace.
type Timeline struct {
	Events   []Event
	Makespan time.Duration
	// BusyByClass is total busy time per fire class.
	BusyByClass map[string]time.Duration
	// Lanes maps (node, thread) pairs to lane indices, sorted. Thread -1 is
	// a node's proxy lane.
	Lanes map[[2]int]int
}

// Build analyzes a set of events.
func Build(events []Event) *Timeline {
	t := &Timeline{Events: events, BusyByClass: map[string]time.Duration{}, Lanes: map[[2]int]int{}}
	var keys [][2]int
	seen := map[[2]int]bool{}
	for _, e := range events {
		if e.End > t.Makespan {
			t.Makespan = e.End
		}
		if e.Kind == KindFire {
			t.BusyByClass[e.Class] += e.End - e.Start
		}
		k := [2]int{e.Node, e.Thread}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	for i, k := range keys {
		t.Lanes[k] = i
	}
	return t
}

// PanelOverlap returns the fraction of the makespan during which work
// belonging to at least two different panels is in flight simultaneously —
// the pipelining the shifted domain boundary enables (paper Fig. 7b).
// Classes may restrict the measurement (nil means all classes).
func (t *Timeline) PanelOverlap(classes map[string]bool) float64 {
	if t.Makespan == 0 {
		return 0
	}
	type edge struct {
		at    time.Duration
		panel int
		delta int
	}
	var edges []edge
	for _, e := range t.Events {
		if classes != nil && !classes[e.Class] {
			continue
		}
		if e.Panel < 0 {
			continue
		}
		edges = append(edges, edge{e.Start, e.Panel, +1}, edge{e.End, e.Panel, -1})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].delta < edges[b].delta // process ends first
	})
	active := map[int]int{}
	distinct := 0
	var overlapped time.Duration
	var last time.Duration
	for _, ed := range edges {
		if distinct >= 2 {
			overlapped += ed.at - last
		}
		last = ed.at
		active[ed.panel] += ed.delta
		if active[ed.panel] == 0 {
			delete(active, ed.panel)
		}
		distinct = len(active)
	}
	return float64(overlapped) / float64(t.Makespan)
}

// Utilization returns total fire-busy time divided by worker lanes ×
// makespan. Proxy lanes (thread -1) are not counted as capacity.
func (t *Timeline) Utilization() float64 {
	if t.Makespan == 0 {
		return 0
	}
	lanes := 0
	for k := range t.Lanes {
		if k[1] >= 0 {
			lanes++
		}
	}
	if lanes == 0 {
		return 0
	}
	var busy time.Duration
	for _, d := range t.BusyByClass {
		busy += d
	}
	return float64(busy) / (float64(t.Makespan) * float64(lanes))
}

// RankStats is one rank's share of a merged timeline: fire-busy and wait
// time over its workers, and its proxy's traffic.
type RankStats struct {
	Node                 int
	Busy, Wait, Barrier  time.Duration
	SentBytes, RecvBytes int64
	Sends, Recvs         int
}

// ByRank breaks the timeline down per node, for the per-rank idle/comm
// report of a merged multi-rank trace.
func (t *Timeline) ByRank() []RankStats {
	idx := map[int]int{}
	var out []RankStats
	get := func(node int) *RankStats {
		i, ok := idx[node]
		if !ok {
			i = len(out)
			idx[node] = i
			out = append(out, RankStats{Node: node})
		}
		return &out[i]
	}
	for _, e := range t.Events {
		r := get(e.Node)
		switch e.Kind {
		case KindFire:
			r.Busy += e.End - e.Start
		case KindWait:
			r.Wait += e.End - e.Start
		case KindBarrier:
			r.Barrier += e.End - e.Start
		case KindSend:
			r.SentBytes += e.Bytes
			r.Sends++
		case KindRecv:
			r.RecvBytes += e.Bytes
			r.Recvs++
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// classGlyph maps trace classes to single characters for ASCII rendering.
func classGlyph(class string) byte {
	switch class {
	case "panel":
		return 'P'
	case "update":
		return 'u'
	case "binary":
		return 'B'
	case "binary-update":
		return 'b'
	case ClassWait:
		return '~'
	case ClassSend:
		return '>'
	case ClassRecv:
		return '<'
	case ClassBarrier:
		return '='
	default:
		if class == "" {
			return '#'
		}
		return class[0]
	}
}

// ASCII renders the timeline as one row per (node, thread) lane and width
// columns; each cell shows the class that occupied most of that time
// bucket, or '.' when idle. Proxy lanes are labeled "nXXcomm".
func (t *Timeline) ASCII(width int) string {
	if width < 1 || t.Makespan == 0 || len(t.Lanes) == 0 {
		return ""
	}
	rows := make([][]time.Duration, len(t.Lanes))    // per lane per bucket busy
	classAt := make([][]map[string]time.Duration, 0) // dominant class
	for i := range rows {
		rows[i] = make([]time.Duration, width)
		m := make([]map[string]time.Duration, width)
		for j := range m {
			m[j] = map[string]time.Duration{}
		}
		classAt = append(classAt, m)
	}
	bucket := t.Makespan / time.Duration(width)
	if bucket == 0 {
		bucket = 1
	}
	for _, e := range t.Events {
		lane := t.Lanes[[2]int{e.Node, e.Thread}]
		for b := int(e.Start / bucket); b < width && time.Duration(b)*bucket < e.End; b++ {
			lo := time.Duration(b) * bucket
			hi := lo + bucket
			s, en := e.Start, e.End
			if s < lo {
				s = lo
			}
			if en > hi {
				en = hi
			}
			if en > s {
				rows[lane][b] += en - s
				classAt[lane][b][e.Class] += en - s
			}
		}
	}
	var sb strings.Builder
	laneKeys := make([][2]int, len(t.Lanes))
	for k, i := range t.Lanes {
		laneKeys[i] = k
	}
	for i, row := range rows {
		if laneKeys[i][1] < 0 {
			fmt.Fprintf(&sb, "n%02dcomm|", laneKeys[i][0])
		} else {
			fmt.Fprintf(&sb, "n%02dt%02d |", laneKeys[i][0], laneKeys[i][1])
		}
		for b, busy := range row {
			if busy < bucket/4 {
				sb.WriteByte('.')
				continue
			}
			var best string
			var bestD time.Duration
			for c, d := range classAt[i][b] {
				if d > bestD {
					best, bestD = c, d
				}
			}
			sb.WriteByte(classGlyph(best))
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}

// classColor maps classes to the paper's Fig. 7 palette.
func classColor(class string) string {
	switch class {
	case "panel":
		return "#d62728" // red
	case "update":
		return "#ff9a3c" // orange
	case "binary", "binary-update":
		return "#1f77b4" // blue
	case ClassWait:
		return "#dddddd" // idle gray
	case ClassSend:
		return "#2ca02c" // green
	case ClassRecv:
		return "#98df8a" // light green
	case ClassBarrier:
		return "#9467bd" // purple
	default:
		return "#777777"
	}
}

// ChromeTrace renders the timeline in the Chrome trace-event JSON format
// (chrome://tracing, Perfetto): one process per node, one thread lane per
// worker (tid -1 is the proxy), complete events with microsecond
// timestamps, categorized by kind.
func (t *Timeline) ChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, e := range t.Events {
		sep := ","
		if i == len(t.Events)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(bw,
			`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"panel":%d,"bytes":%d,"peer":%d}}%s`+"\n",
			e.Class, e.Kind.String(),
			float64(e.Start)/float64(time.Microsecond),
			float64(e.End-e.Start)/float64(time.Microsecond),
			e.Node, e.Thread, e.Panel, e.Bytes, e.Peer, sep)
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// SVG renders the timeline as an SVG document, one lane per thread.
func (t *Timeline) SVG(width, laneHeight int) string {
	if t.Makespan == 0 || len(t.Lanes) == 0 {
		return "<svg xmlns=\"http://www.w3.org/2000/svg\"/>"
	}
	h := laneHeight * len(t.Lanes)
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">`, width, h)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="#ffffff"/>`, width, h)
	scale := float64(width) / float64(t.Makespan)
	for _, e := range t.Events {
		lane := t.Lanes[[2]int{e.Node, e.Thread}]
		x := float64(e.Start) * scale
		w := float64(e.End-e.Start) * scale
		if w < 0.2 {
			w = 0.2
		}
		fmt.Fprintf(&sb, `<rect x="%.2f" y="%d" width="%.2f" height="%d" fill="%s"/>`,
			x, lane*laneHeight+1, w, laneHeight-2, classColor(e.Class))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}
