package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"guava/internal/obs"
)

// span is one recorded interval of the traced run: the benchmark's own spans
// around each public call ("bench"), and the spans the program emits through
// obs under them ("program"). Spans of one op share Op.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Src    string `json:"src"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps the traced run's spans in memory until the run ends. A nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a benchmark span and returns its id (0 when untraced).
func (t *tracer) begin(op, parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Src: "bench",
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// opContext returns ctx with a fresh observer for one op, so the spans the
// program emits during the op land apart from every other op's. Untraced, it
// returns ctx unchanged and a nil observer.
func (t *tracer) opContext(ctx context.Context) (context.Context, *obs.Observer) {
	if t == nil {
		return ctx, nil
	}
	o := obs.NewObserver()
	return obs.WithObserver(ctx, o), o
}

// adopt moves the spans o collected into the trace: the program's root spans
// hang under parent, and every span takes op's id.
func (t *tracer) adopt(op, parent int64, o *obs.Observer) {
	if t == nil || o == nil {
		return
	}
	ids := map[int64]int64{}
	for _, s := range o.Tracer.Spans() { // start order: a parent precedes its children
		id := int64(len(t.spans) + 1)
		ids[s.ID()] = id
		p, ok := ids[s.ParentID()]
		if !ok {
			p = parent
		}
		start := s.Start().Sub(t.t0).Nanoseconds()
		t.spans = append(t.spans, span{ID: id, Parent: p, Op: op, Name: s.Name(), Src: "program",
			Start: start, End: start + s.Duration().Nanoseconds()})
	}
}

// selfMs is a span's duration minus the part of it its children cover.
func (t *tracer) selfMs(id int64, kids map[int64][]int64) float64 {
	s := t.spans[id-1]
	var iv [][2]int64
	for _, k := range kids[id] {
		c := t.spans[k-1]
		iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64 = 0, s.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			covered += v[1] - lo
			reach = v[1]
		}
	}
	return float64(s.End-s.Start-covered) / 1e6
}

func (t *tracer) children() map[int64][]int64 {
	kids := map[int64][]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	return kids
}

// each returns the duration of every span keep accepts, one sample per span.
func (t *tracer) each(keep func(*span) bool) *dist {
	d := &dist{}
	for i := range t.spans {
		if keep(&t.spans[i]) {
			d.addMs(t.spans[i].dur())
		}
	}
	return d
}

// perOp sums, per op, the value of every span keep accepts, and returns one
// sample per op that had such a span.
func (t *tracer) perOp(keep func(*span) bool, value func(*span) float64) *dist {
	sums := map[int64]float64{}
	var order []int64
	for i := range t.spans {
		s := &t.spans[i]
		if !keep(s) {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		sums[s.Op] += value(s)
	}
	d := &dist{}
	for _, op := range order {
		d.addMs(sums[op])
	}
	return d
}

// named matches program spans by name prefix.
func named(prefix string) func(*span) bool {
	return func(s *span) bool { return s.Src == "program" && strings.HasPrefix(s.Name, prefix) }
}

// benchSpan matches the benchmark's own spans by exact name.
func benchSpan(name string) func(*span) bool {
	return func(s *span) bool { return s.Src == "bench" && s.Name == name }
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
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
