package core

import (
	"context"
	"sync"

	"llhsc/internal/constraints"
	"llhsc/internal/obs"
)

// runPool runs one job per entry of names on min(workers, len(names))
// workers, with the error semantics of a serial loop. Jobs are
// dispatched in index order. When root is non-nil, each job runs under
// its own child span of root, named names[i], created at dispatch under
// the dispatch lock — so children appear in index order whatever the
// schedule, and a job never dispatched leaves no span — and ended when
// the job returns.
//
// A failure at job i stops dispatch of later jobs and cancels only the
// running jobs with index > i, whose results can no longer matter; jobs
// below i run to completion, since one of them may fail too. runPool
// returns the lowest-index error, so the reported error is the one a
// serial run reports, whatever the schedule. With one worker the jobs
// run on the calling goroutine in index order and stop at the first
// failure.
//
// A panicking job counts as a failure at its index. It is recovered on
// its worker and, if it is the lowest-index failure, re-raised on the
// calling goroutine once the pool drains, so the server's panic
// recovery still contains it.
func runPool(ctx context.Context, workers int, root *obs.Span, names []string, job func(ctx context.Context, i int, span *obs.Span) error) error {
	n := len(names)
	var (
		mu       sync.Mutex
		next     int
		failed   = n // lowest failed index; n while none has failed
		err      error
		panicVal interface{}                     // recover() is never nil for a panic (Go 1.21+)
		cancels  = make([]context.CancelFunc, n) // set at dispatch; idempotent
	)
	// fail records the outcome of a failed job i (an error or a panic
	// value) and cancels the running jobs above it.
	fail := func(i int, e error, p interface{}) {
		mu.Lock()
		defer mu.Unlock()
		if i > failed {
			return
		}
		failed, err, panicVal = i, e, p
		for j := i + 1; j < next; j++ {
			cancels[j]()
		}
	}
	run := func(jctx context.Context, i int, span *obs.Span) {
		defer span.End()
		defer func() {
			if p := recover(); p != nil {
				fail(i, nil, p)
			}
		}()
		if e := job(jctx, i, span); e != nil {
			fail(i, e, nil)
		}
	}
	worker := func() {
		for {
			mu.Lock()
			i := next
			if i >= failed {
				mu.Unlock()
				return
			}
			next++
			jctx, cancel := context.WithCancel(ctx)
			cancels[i] = cancel
			var span *obs.Span
			if root != nil {
				span = root.StartChild(names[i])
			}
			mu.Unlock()
			run(jctx, i, span)
			cancel()
		}
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker()
		}()
	}
	worker()
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	return err
}

// The rest of this file is the pooled-buffer half of the
// zero-allocation hot path (DESIGN.md §13): the Report shell is recycled
// through a sync.Pool instead of re-allocated per run. The server pays
// these allocations once per request, so in steady state a /check that
// hits the word tier and the check cache touches the allocator only for
// data that actually escapes into the response.

// reportPool recycles Report shells between runs. Only memory that
// never escapes a released report is reused: the struct itself, the
// VMs slot array and the JailhouseCellsC backing array.
var reportPool = sync.Pool{New: func() interface{} { return new(Report) }}

// AcquireReport returns an empty Report drawing on capacity from
// previously Released reports. RunContext uses it internally, so
// callers normally never see this function; it is exported alongside
// Release for callers that build reports themselves.
func AcquireReport() *Report {
	return reportPool.Get().(*Report)
}

// Release clears the report and returns its recyclable buffers to the
// pool. The caller must be completely done with the report AND with
// every slice read out of it that Release clears (VMs, QEMUArgs,
// JailhouseCellsC, Allocation) — copy anything that outlives the
// report first, as the service layer does when building a response.
// Releasing is optional: an un-Released report is ordinary garbage.
func (r *Report) Release() {
	for i := range r.Allocation {
		r.Allocation[i] = constraints.Violation{}
	}
	r.Allocation = r.Allocation[:0]
	for i := range r.Lifted {
		r.Lifted[i] = constraints.LiftedFinding{}
	}
	r.Lifted = r.Lifted[:0]
	for i := range r.VMs {
		r.VMs[i] = VMResult{}
	}
	r.VMs = r.VMs[:0]
	r.Platform = PlatformResult{}
	r.PlatformC, r.ConfigC = "", ""
	for i := range r.QEMUArgs {
		r.QEMUArgs[i] = ""
	}
	r.QEMUArgs = r.QEMUArgs[:0]
	r.JailhouseRootC = ""
	for i := range r.JailhouseCellsC {
		r.JailhouseCellsC[i] = ""
	}
	r.JailhouseCellsC = r.JailhouseCellsC[:0]
	r.Stats = RunStats{}
	reportPool.Put(r)
}

// vmSlots resizes r.VMs to n zeroed entries, reusing a released
// report's backing array when it is large enough.
func (r *Report) vmSlots(n int) {
	if cap(r.VMs) < n {
		r.VMs = make([]VMResult, n)
		return
	}
	r.VMs = r.VMs[:n]
	for i := range r.VMs {
		r.VMs[i] = VMResult{}
	}
}
