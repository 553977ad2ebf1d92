package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer's public function. Ops counts the
// calls the span covers: nanosecond-scale functions are timed in batches,
// because a span per call would mostly measure the clock reads.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Ops    int32  `json:"ops"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span named name under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1, Ops: 1})
	t.mu.Unlock()
	return id
}

// end closes span id, covering ops calls.
func (t *tracer) end(id int32, ops int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Ops = int32(ops)
	t.mu.Unlock()
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// perOp returns the median per-call duration, in ns, of the spans named
// name.
func perOp(spans []span, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name && s.Ops > 0 {
			v = append(v, float64(s.dur())/float64(s.Ops))
		}
	}
	return median(v)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTimes computes each layer's self time: its spans' durations minus
// the part of each interval that child spans cover (the union of the
// children, so concurrent children are not double-counted). Root spans
// are the benchmark's own phases; their self time is the "unaccounted"
// remainder. A layer is the span name up to its first dot.
func selfTimes(spans []span) (rows []layerRow, unaccounted float64) {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	count := make(map[string]int)
	var total, rootSelf int64
	for _, s := range spans {
		st := s.dur() - covered(s, children[s.ID])
		if s.Parent < 0 {
			total += s.dur()
			rootSelf += st
			continue
		}
		layer := s.Name
		if i := strings.IndexByte(layer, '.'); i > 0 {
			layer = layer[:i]
		}
		self[layer] += st
		count[layer]++
	}
	for l, ns := range self {
		rows = append(rows, layerRow{Layer: l, Spans: count[l], SelfMs: float64(ns) / 1e6, Share: ratio(float64(ns), float64(total))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMs > rows[j].SelfMs })
	return rows, ratio(float64(rootSelf), float64(total))
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	curS, curE := int64(-1), int64(-1)
	flush := func() {
		if e, s := min(curE, parent.End), max(curS, parent.Start); e > s {
			sum += e - s
		}
	}
	for _, k := range kids {
		if k.Start > curE {
			flush()
			curS, curE = k.Start, k.End
		} else if k.End > curE {
			curE = k.End
		}
	}
	flush()
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, rows []layerRow, unaccounted float64) {
	fmt.Fprintf(w, "%-12s %8s %12s %8s\n", "layer", "spans", "self_ms", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %12.3f %7.2f%%\n", r.Layer, r.Spans, r.SelfMs, 100*r.Share)
	}
	fmt.Fprintf(w, "%-12s %8s %12s %7.2f%%\n", "unaccounted", "-", "-", 100*unaccounted)
}

// maxSpansWritten caps the spans written to the trace file; the table and
// the per-layer metrics always use every span.
const maxSpansWritten = 200000

// writeTrace writes the spans, the self-time table and the host metadata
// as JSON under dir.
func writeTrace(dir, workload string, seed uint64, host hostInfo, spans []span, rows []layerRow, unaccounted float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	written := spans
	if len(written) > maxSpansWritten {
		written = written[:maxSpansWritten]
	}
	doc := struct {
		Workload    string     `json:"workload"`
		Seed        uint64     `json:"seed"`
		Host        hostInfo   `json:"host"`
		Layers      []layerRow `json:"layers"`
		Unaccounted float64    `json:"unaccounted_share"`
		SpanCount   int        `json:"span_count"`
		Spans       []span     `json:"spans"`
	}{workload, seed, host, rows, unaccounted, len(spans), written}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finishTrace prints the self-time table, records the unaccounted share
// and writes the spans to the trace file under .bench_build/.
func finishTrace(cfg config, tr *tracer, out *outcome) []span {
	spans := tr.closed()
	rows, unaccounted := selfTimes(spans)
	fmt.Println("per-layer self time (traced phases):")
	printSelfTimes(os.Stdout, rows, unaccounted)
	out.set("trace.unaccounted", unaccounted)
	path, err := writeTrace(filepath.Join(".bench_build", "traces"), cfg.workload, cfg.seed, readHost(), spans, rows, unaccounted)
	if err != nil {
		out.problem("write trace: %v", err)
	} else {
		out.note("trace: %d spans written to %s", len(spans), path)
	}
	return spans
}
