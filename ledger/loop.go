package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// phase is the outcome of one closed-loop phase.
type phase struct {
	checks, failed int64
	wall           time.Duration
	latencies      []float64 // per check, ms
	finished       []float64 // per check, seconds from the phase start to its end
	correct        []bool    // per check, whether its verdict was right
	steal          []uint64  // cumulative steal ticks at each slice boundary (timed phases)
	rss            []float64 // per slice, the highest resident set size sampled, MB
	errs           []error   // the first few wrong verdicts
	allocBytes     uint64
	mallocs        uint64
	gcCycles       uint32
	gcPauseNs      uint64
}

// sample is one completed check.
type sample struct {
	latency, end float64
	ok           bool
}

// maxErrs bounds how many wrong verdicts a phase keeps for the report.
const maxErrs = 16

// runPhase drives inst as a closed loop: each of inst.callers callers
// starts its next check only when its previous one has returned. It
// stops after maxChecks checks when maxChecks > 0, otherwise once d has
// elapsed or the tracer is full (checks in progress still complete).
func runPhase(ctx context.Context, inst *instance, d time.Duration, maxChecks int, tr *tracer) phase {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		p       phase
		wg      sync.WaitGroup
		perCall = make([][]sample, inst.callers)
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	stopSampling := make(chan struct{})
	samples := make(chan machineSamples, 1)
	if maxChecks <= 0 {
		go sampleMachine(start, stopSampling, samples)
	} else {
		samples <- machineSamples{}
	}
	for c := 0; c < inst.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				seq := next.Add(1) - 1
				if maxChecks > 0 && seq >= int64(maxChecks) {
					return
				}
				if maxChecks <= 0 && (!time.Now().Before(deadline) || tr.full()) {
					return
				}
				root := tr.begin("check", -1, seq)
				t0 := time.Now()
				err := inst.check(ctx, c, seq, tr, root)
				t1 := time.Now()
				perCall[c] = append(perCall[c], sample{
					latency: float64(t1.Sub(t0).Nanoseconds()) / 1e6,
					end:     t1.Sub(start).Seconds(),
					ok:      err == nil,
				})
				tr.end(root)
				if err != nil {
					mu.Lock()
					p.failed++
					if len(p.errs) < maxErrs {
						p.errs = append(p.errs, fmt.Errorf("check %d: %w", seq, err))
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	close(stopSampling)
	ms := <-samples
	p.steal, p.rss = ms.steal, ms.rss
	runtime.ReadMemStats(&after)
	for _, samples := range perCall {
		for _, s := range samples {
			p.latencies = append(p.latencies, s.latency)
			p.finished = append(p.finished, s.end)
			p.correct = append(p.correct, s.ok)
		}
	}
	p.checks = int64(len(p.latencies))
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.mallocs = after.Mallocs - before.Mallocs
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return p
}

// counters accumulates the program's own work counters, keyed by
// per-layer metric name, across concurrent callers.
type counters struct {
	mu sync.Mutex
	m  map[string]float64
}

func newCounters() *counters { return &counters{m: map[string]float64{}} }

func (c *counters) add(name string, v float64) {
	c.mu.Lock()
	c.m[name] += v
	c.mu.Unlock()
}

func (c *counters) snapshot() counterSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(counterSet, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// counterSet is a point-in-time copy of counters.
type counterSet map[string]float64

func (s counterSet) sub(base counterSet) counterSet {
	out := make(counterSet, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// steadyStats are the end-to-end figures of a phase's quietest slices.
type steadyStats struct {
	rate          float64 // mean correct checks per second over the kept slices
	p50, p90, p99 float64 // medians over the kept slices of each slice's quantile
	peakMB        float64 // highest resident set size sampled, MB
	perSlice      []int   // checks completed in each slice
}

// steady computes the figures of the phase's quietest slices. On a
// shared host, other tenants' load arrives as CPU time the hypervisor
// steals from this machine, and it can slow a run by half for tens of
// seconds. The phase is cut into one-second slices by completion time;
// the steal column of /proc/stat is read at every slice boundary. The
// slices are ranked by stolen ticks, least first, and among equal steal
// by correct checks completed, most first; the first 40% are kept.
// Without steal samples (a run shorter than two slices, or no
// /proc/stat) the whole phase is one slice.
func (p phase) steady() steadyStats {
	n := len(p.steal) - 1
	if n < 2 {
		good := 0
		for _, ok := range p.correct {
			if ok {
				good++
			}
		}
		return steadyStats{
			rate:     float64(good) / p.wall.Seconds(),
			p50:      percentile(p.latencies, 0.50),
			p90:      percentile(p.latencies, 0.90),
			p99:      percentile(p.latencies, 0.99),
			peakMB:   residentMB("VmHWM:"),
			perSlice: []int{len(p.latencies)},
		}
	}
	lat := make([][]float64, n)
	good := make([]int, n)
	st := steadyStats{perSlice: make([]int, n)}
	for i, end := range p.finished {
		k := int(end / sliceSeconds)
		if k >= n {
			continue // the partial slice after the last steal sample
		}
		lat[k] = append(lat[k], p.latencies[i])
		st.perSlice[k]++
		if p.correct[i] {
			good[k]++
		}
	}
	order := make([]int, n)
	for k := range order {
		order[k] = k
	}
	stolen := func(k int) uint64 { return p.steal[k+1] - p.steal[k] }
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if stolen(a) != stolen(b) {
			return stolen(a) < stolen(b)
		}
		return good[a] > good[b]
	})
	keep := max(1, n*2/5)
	kept := 0
	var p50s, p90s, p99s []float64
	for _, k := range order[:keep] {
		kept += good[k]
		if len(lat[k]) > 0 {
			p50s = append(p50s, percentile(lat[k], 0.50))
			p90s = append(p90s, percentile(lat[k], 0.90))
			p99s = append(p99s, percentile(lat[k], 0.99))
		}
	}
	st.rate = float64(kept) / (sliceSeconds * float64(keep))
	st.p50, st.p90, st.p99 = median(p50s), median(p90s), median(p99s)
	for _, mb := range p.rss {
		st.peakMB = max(st.peakMB, mb)
	}
	return st
}

// sliceSeconds is the length of the slices phase.steady ranks.
const sliceSeconds = 1.0

// stealTicks reads the machine-wide stolen CPU time, in clock ticks,
// from /proc/stat.
func stealTicks() (uint64, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(fields[8], 10, 64)
	return v, err == nil
}

// sampleInterval is how often the sampler reads the resident set size
// and looks for a slice boundary to read the steal counter at.
const sampleInterval = 50 * time.Millisecond

// machineSamples is what sampleMachine collects over a timed phase.
type machineSamples struct {
	steal []uint64  // cumulative steal ticks at each slice boundary
	rss   []float64 // per slice, the highest resident set size seen, MB
}

// sampleMachine reads the steal counter at the start and at every slice
// boundary, and the resident set size every sampleInterval, until stop
// is closed; then it sends the samples on out. Steal samples stay empty
// when /proc/stat cannot be read.
func sampleMachine(start time.Time, stop <-chan struct{}, out chan<- machineSamples) {
	var ms machineSamples
	defer func() { out <- ms }()
	stealOK := true
	readSteal := func() {
		if v, ok := stealTicks(); ok && stealOK {
			ms.steal = append(ms.steal, v)
		} else {
			stealOK, ms.steal = false, nil
		}
	}
	readSteal()
	tick := time.NewTicker(sampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			// Close the last full slice if its boundary passed
			// between ticks.
			if int(time.Since(start).Seconds()/sliceSeconds) >= len(ms.steal) {
				readSteal()
			}
			return
		case <-tick.C:
		}
		k := int(time.Since(start).Seconds() / sliceSeconds)
		// One steal sample per slice boundary crossed; after a stall
		// longer than a slice, the stolen time lands in the last slice.
		for len(ms.rss) <= k {
			if len(ms.rss) > 0 {
				readSteal()
			}
			ms.rss = append(ms.rss, 0)
		}
		ms.rss[k] = max(ms.rss[k], residentMB("VmRSS:"))
	}
}

// residentMB reads one memory field of /proc/self/status, in MB (0 when
// it cannot be read).
func residentMB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb); err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
