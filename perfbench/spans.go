package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one query or one record
// share an id; parent names the enclosing span of the same id ("" at the
// top).
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// tracer records nothing, so the untraced code path is the traced one
// minus the clock reads.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // spans are recorded only while on
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.on.Store(true)
	return t
}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(id uint64, name, parent string) func() {
	if t == nil || !t.on.Load() {
		return func() {}
	}
	start := int64(time.Since(t.epoch))
	return func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Start: start, End: end})
		t.mu.Unlock()
	}
}

// layerTime is the accumulated self time of one span name.
type layerTime struct {
	Count int
	Self  time.Duration // span durations minus the parts their children cover
	Total time.Duration
}

// selfTimes folds the spans into per-name self times. A span's self time is
// its duration minus the union of its children's intervals (same id,
// parent = its name) clipped to it.
func (t *tracer) selfTimes() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		id   uint64
		name string
	}
	children := map[key][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		d := s.End - s.Start
		covered := coveredNS(s, children[key{s.ID, s.Name}])
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(d - covered)
		out[s.Name] = lt
	}
	return out
}

// coveredNS returns how much of parent's interval the children cover.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
