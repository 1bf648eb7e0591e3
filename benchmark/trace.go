package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call the driver made into a layer's public function.
// Spans are recorded here, around the call — the program under test carries no
// tracing of its own yet. Name is the layer metric the span feeds; spans of
// one op share Op and hang off the op's root span through Parent.
type span struct {
	Op     int64  `json:"op"` // op sequence number; -1 for a layer probe
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int64, parent int32, name string) int32 {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// probe opens a root span outside any op; the returned func closes it and
// returns its duration.
func (t *tracer) probe(name string) func() time.Duration {
	id := t.begin(-1, -1, name)
	return func() time.Duration { return t.end(id) }
}

// opTrace is the tracing handle one op receives. A nil *opTrace is an
// untraced op: every method is a no-op, so workloads call it unconditionally.
type opTrace struct {
	t    *tracer
	op   int64
	root int32
}

const opSpanName = "op"

func (t *tracer) startOp(op int64) *opTrace {
	return &opTrace{t: t, op: op, root: t.begin(op, -1, opSpanName)}
}

func (o *opTrace) finish() {
	if o != nil {
		o.t.end(o.root)
	}
}

func noop() {}

// call opens a child span of the op; the returned func closes it.
func (o *opTrace) call(name string) func() {
	if o == nil {
		return noop
	}
	id := o.t.begin(o.op, o.root, name)
	return func() { o.t.end(id) }
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfTimes derives each span's self time: its duration minus the part of its
// interval that its child spans cover (children may overlap one another).
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// unattributedShare is the share of all op time that no child span covers.
func (t *tracer) unattributedShare() float64 {
	self := t.selfTimes()
	var own, total time.Duration
	for i, s := range t.spans {
		if s.Name == opSpanName {
			own += self[i]
			total += time.Duration(s.End - s.Start)
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
