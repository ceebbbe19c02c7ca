package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary: name is
// "<layer>.<operation>", and parent is the span that caused it (0 for a
// root). Times are nanoseconds since the tracer's epoch.
type span struct {
	id, parent int64
	name       string
	start, end int64
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the tracer clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span id, so a span's children can name it as their
// parent before it ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span under a reserved id.
func (t *tracer) record(id, parent int64, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: start, end: end})
	t.mu.Unlock()
}

// run times fn as a span named name under parent and returns its id.
func (t *tracer) run(parent int64, name string, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.newID()
	start := t.now()
	fn(id)
	t.record(id, parent, name, start, t.now())
}

// snapshot returns the spans sorted by id.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// layerOf is the layer part of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Children may run on other
// goroutines and overlap one another, so their intervals are merged
// before they are subtracted.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered int64
		curLo, curHi := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.start, s.start), min(k.end, s.end)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		covered += curHi - curLo
		self[s.id] = s.end - s.start - covered
	}
	return self
}

// layerSelf sums self time per layer.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[layerOf(s.name)] += self[s.id]
	}
	return out
}

// writeSpans writes the spans as tab-separated lines: id, parent, name,
// start and end in nanoseconds since the tracer epoch.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
