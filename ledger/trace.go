package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the program (the program itself is not
// instrumented).
type span struct {
	name       string
	check      int64 // the check this span belongs to
	parent     int32 // index of the parent span, -1 for a check's root
	start, end time.Duration
	allocs     uint64 // heap objects allocated between start and end
}

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced checks pay one nil test per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// maxSpans bounds a traced phase's memory: a timed phase stops starting
// checks once this many spans are kept.
const maxSpans = 1 << 18

// full reports whether the tracer has reached maxSpans.
func (t *tracer) full() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= maxSpans
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// heapObjects reads the process-wide count of heap objects allocated.
func heapObjects() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int32, check int64) int32 {
	if t == nil {
		return -1
	}
	allocs := heapObjects()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, check: check, parent: parent,
		start: time.Since(t.t0), allocs: allocs,
	})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	allocs := heapObjects()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.end = now
	s.allocs = allocs - s.allocs
}

// do records fn as a span named name under parent, passing fn the span
// id so it can hang replayed children below it.
func (t *tracer) do(name string, parent int32, check int64, fn func(id int32)) {
	id := t.begin(name, parent, check)
	fn(id)
	t.end(id)
}

// layerTotals is one span name's aggregate over a traced phase.
type layerTotals struct {
	dur, self time.Duration
	selfAlloc uint64
}

// aggregate derives each span's self time — its duration minus its
// children's durations — and sums durations and self times per name.
// Replayed layer calls are children of the span whose work they
// account for even when they run after it, so a parent's self time is
// exactly "parent time minus the replayed layer calls".
func (t *tracer) aggregate() map[string]*layerTotals {
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childAlloc[s.parent] += s.allocs
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.dur += d
		lt.self += d - childDur[i]
		lt.selfAlloc += s.allocs - min(s.allocs, childAlloc[i])
	}
	return out
}

// write stores the spans as one JSON document under dir and returns its
// path. Each span is [name index, check, parent, start ns, end ns,
// allocated objects].
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	defer f.Close()
	index := map[string]int{}
	var names []string
	rows := make([][6]int64, len(t.spans))
	for i, s := range t.spans {
		n, ok := index[s.name]
		if !ok {
			n = len(names)
			index[s.name] = n
			names = append(names, s.name)
		}
		rows[i] = [6]int64{int64(n), s.check, int64(s.parent), int64(s.start), int64(s.end), int64(s.allocs)}
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Columns []string   `json:"columns"`
		Names   []string   `json:"names"`
		Spans   [][6]int64 `json:"spans"`
	}{
		Columns: []string{"name", "check", "parent", "start_ns", "end_ns", "allocs"},
		Names:   names,
		Spans:   rows,
	}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, f.Close()
}

// spanMetric maps a span name to a per-layer metric: the per-check mean
// of the spans' self time ("self"), whole duration ("dur") or self
// allocations ("allocs").
type spanMetric struct {
	span, metric, kind string
}

var spanMetrics = []spanMetric{
	{"featmodel.multi_analyzer", "featmodel.multi_analyzer_ms", "self"},
	{"featmodel.parse", "featmodel.parse_ms", "self"},
	{"constraints.allocation_check", "constraints.allocation_check_ms", "self"},
	{"constraints.allocation_check", "constraints.allocation_allocs", "allocs"},
	{"constraints.syntactic", "constraints.syntactic_ms", "self"},
	{"constraints.syntactic", "constraints.syntactic_allocs", "allocs"},
	{"constraints.semantic", "constraints.semantic_ms", "self"},
	{"constraints.memreserve", "constraints.memreserve_ms", "self"},
	{"constraints.interrupt", "constraints.interrupt_ms", "self"},
	{"constraints.lifted", "constraints.lifted_ms", "self"},
	{"delta.lift", "delta.lift_ms", "self"},
	{"delta.apply", "delta.apply_ms", "self"},
	{"delta.parse", "delta.parse_ms", "self"},
	{"preproc", "preproc.self_ms", "self"},
	{"dts.parse", "dts.parse_ms", "self"},
	{"dts.print", "dts.print_ms", "self"},
	{"dts.overlay_apply", "dts.overlay_apply_ms", "self"},
	{"baogen", "baogen.ms", "self"},
	{"checkcache", "checkcache.self_ms", "self"},
	{"service.serve", "service.serve_ms", "dur"},
	{"service.serve", "service.self_ms", "self"},
	{"http.request", "service.http_request_ms", "dur"},
	{"http.request", "service.transport_ms", "self"},
	{"core.run", "core.run_ms", "dur"},
	{"core.run", "core.self_ms", "self"},
	{"check", "bench.self_ms", "self"},
}

// counterMetrics are the program's own counters, reported per check.
var counterMetrics = []struct{ name, unit string }{
	{"constraints.semantic_pairs", "count"},
	{"constraints.semantic_pairs_pruned", "count"},
	{"constraints.semantic_solver_calls", "count"},
	{"constraints.lifted_queries", "count"},
	{"constraints.lifted_pruned", "count"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.solver_calls", "count"},
	{"delta.ops", "count"},
	{"preproc.bytes_out", "bytes"},
	{"dts.nodes", "count"},
	{"checkcache.hits", "count"},
	{"checkcache.misses", "count"},
	{"service.response_bytes", "bytes"},
}

// ledgerMetrics fills the per-layer metrics of a traced run: span self
// times and allocations, the program's counters over the traced phase,
// the runtime's GC work over the untraced phase, and the tracing
// overhead (traced against untraced throughput).
func ledgerMetrics(m map[string]metric, tr *tracer, traced, plain phase, ctr counterSet) {
	n := float64(traced.checks)
	if n == 0 {
		n = 1
	}
	agg := tr.aggregate()
	for _, sm := range spanMetrics {
		var v float64
		unit := "ms"
		if lt := agg[sm.span]; lt != nil {
			switch sm.kind {
			case "self":
				v = float64(lt.self.Nanoseconds()) / 1e6 / n
			case "dur":
				v = float64(lt.dur.Nanoseconds()) / 1e6 / n
			case "allocs":
				v = float64(lt.selfAlloc) / n
			}
		}
		if sm.kind == "allocs" {
			unit = "count"
		}
		m[sm.metric] = metric{v, unit}
	}
	for _, cm := range counterMetrics {
		m[cm.name] = metric{ctr[cm.name] / n, cm.unit}
	}
	hitRatio := 0.0
	if total := ctr["checkcache.hits"] + ctr["checkcache.misses"]; total > 0 {
		hitRatio = ctr["checkcache.hits"] / total
	}
	m["checkcache.hit_ratio"] = metric{hitRatio, "ratio"}

	pn := float64(max(plain.checks, 1))
	m["runtime.gc_cycles_per_check"] = metric{float64(plain.gcCycles) / pn, "count"}
	m["runtime.gc_pause_ms_per_check"] = metric{float64(plain.gcPauseNs) / 1e6 / pn, "ms"}
	m["bench.latency_samples"] = metric{float64(len(plain.latencies)), "count"}
	m["bench.latency_p99_ms"] = metric{plain.steady().p99, "ms"}
	m["trace.spans_per_check"] = metric{float64(len(tr.spans)) / n, "count"}
	overhead := 0.0
	if plain.checks > 0 && traced.wall > 0 {
		overhead = (float64(traced.checks) / traced.wall.Seconds()) /
			(float64(plain.checks) / plain.wall.Seconds())
	}
	m["trace.overhead_ratio"] = metric{overhead, "ratio"}
}
