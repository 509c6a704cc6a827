// Command ledger is the repository's benchmark: it runs one named
// workload against llhsc as a closed loop, checks every verdict
// against a known answer, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer ledger) as one JSON object on the last line
// of standard output.
//
// Run it from the repository root through the wrapper, which builds
// the binary first:
//
//	bash ledger/run.sh --workload e12-vms8 --seed 1 --seconds 10 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one named input set plus the closed loop that drives it.
type workload struct {
	name string
	// setup generates the inputs from the seed, builds the pipeline or
	// server and returns a ready instance; the harness warms it up.
	setup func(seed int64) (*instance, error)
}

// instance is one set-up workload.
type instance struct {
	// callers is the closed loop's concurrency (1 or 2).
	callers int
	// warmup is how many checks set-up runs before measuring.
	warmup int
	// check performs check number seq on behalf of caller and verifies
	// its verdict; a non-nil error is a wrong verdict or a failed call.
	// With a non-nil tracer it records its layer spans under root.
	check func(ctx context.Context, caller int, seq int64, tr *tracer, root int32) error
	// oracles are known-answer checks run once after the measured loop;
	// each counts as one attempted check.
	oracles []func(ctx context.Context) error
	// ctr accumulates the program's own counters (Report.Stats,
	// checker stats, cache stats) as checks complete.
	ctr *counters
	// close releases servers and listeners; nil when there are none.
	close func()
}

var workloads = []workload{
	{name: "e12-vms8", setup: setupE12},
	{name: "e16-510-products", setup: setupE16},
	{name: "corpus", setup: setupCorpus},
	{name: "http-check", setup: setupHTTP},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// checks, when positive, runs exactly that many checks per phase
	// instead of a timed phase (the smoke test's fixed check count).
	checks int
	// setups is how many set-ups a run makes; setup_s is their median.
	setups int
	// traceDir receives the traced run's spans.
	traceDir string
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), opts, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledger:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("ledger", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input-generation seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run (split in halves with -trace 1)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case findWorkload(o.workload) == nil:
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, workloadNames())
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	case o.seconds <= 0:
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.trace = trace == 1
	o.setups = 5
	o.traceDir = ".bench_build/ledger-trace"
	return o, nil
}

// defaultSeed is the seed baselines are recorded at; README.md names a
// held-out seed kept for confirming later claims.
const defaultSeed = 1

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up opts.setups times, measures the last
// instance and assembles the result. An error means the benchmark
// could not run at all; wrong verdicts only count as failures.
func run(ctx context.Context, opts options, log io.Writer) (*result, error) {
	wl := findWorkload(opts.workload)
	setupTimes := make([]float64, 0, opts.setups)
	var inst *instance
	var attempted, failed int64
	var errs []error
	for i := 0; i < opts.setups; i++ {
		if inst != nil && inst.close != nil {
			inst.close()
		}
		start := time.Now()
		var err error
		inst, err = wl.setup(opts.seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		warm := runPhase(ctx, inst, 0, inst.warmup, nil)
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		attempted += warm.checks
		failed += warm.failed
		errs = append(errs, warm.errs...)
	}
	if inst.close != nil {
		defer inst.close()
	}

	untracedFor := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		untracedFor /= 2
	}
	plain := runPhase(ctx, inst, untracedFor, opts.checks, nil)

	attempted += plain.checks
	failed += plain.failed
	errs = append(errs, plain.errs...)
	for _, oracle := range inst.oracles {
		attempted++
		if err := oracle(ctx); err != nil {
			failed++
			errs = append(errs, err)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	if opts.trace {
		tr := newTracer()
		before := inst.ctr.snapshot()
		traced := runPhase(ctx, inst, untracedFor, opts.checks, tr)
		delta := inst.ctr.snapshot().sub(before)
		attempted += traced.checks
		failed += traced.failed
		errs = append(errs, traced.errs...)
		ledgerMetrics(res.Metrics, tr, traced, plain, delta)
		path, err := tr.write(opts.traceDir, fmt.Sprintf("%s-seed%d.json", wl.name, opts.seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "ledger: %d spans written to %s\n", len(tr.spans), path)
	} else {
		endToEndMetrics(res.Metrics, plain, setupTimes)
	}
	res.Attempted = attempted
	res.Failed = failed
	res.Correct = failed == 0
	if opts.trace {
		// failed_ratio is 0 on a correct run, so it cannot carry a
		// relative bound; untraced runs report it through the failed and
		// attempted fields.
		res.Metrics["bench.failed_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}
	}
	report(log, wl.name, opts, res, plain, errs)
	return res, nil
}

// endToEndMetrics fills the metrics a user of the checker sees. The rate,
// the latency quantiles and the peak resident set come from
// phase.steady; allocation figures cover the whole phase.
func endToEndMetrics(m map[string]metric, p phase, setupTimes []float64) {
	st := p.steady()
	checks := float64(p.checks)
	m["checks_per_s"] = metric{st.rate, "1/s"}
	m["latency_p50_ms"] = metric{st.p50, "ms"}
	m["latency_p90_ms"] = metric{st.p90, "ms"}
	m["alloc_bytes_per_check"] = metric{float64(p.allocBytes) / checks, "bytes"}
	m["allocs_per_check"] = metric{float64(p.mallocs) / checks, "count"}
	m["peak_rss_mb"] = metric{st.peakMB, "MB"}
	m["setup_s"] = metric{median(setupTimes), "s"}
}

// report prints a human-readable summary, with sample counts and the
// first few wrong verdicts, on the log writer.
func report(w io.Writer, name string, opts options, res *result, p phase, errs []error) {
	fmt.Fprintf(w, "ledger: workload %s seed %d trace %v: %d checks attempted, %d failed, %d latency samples\n",
		name, opts.seed, opts.trace, res.Attempted, res.Failed, len(p.latencies))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "  checks per slice: %v; steal ticks at slice boundaries: %v\n", p.steady().perSlice, p.steal)
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAIL: %v\n", err)
	}
}

// median returns the median of xs, or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank q-quantile of latencies (in ms).
func percentile(latencies []float64, q float64) float64 {
	if len(latencies) == 0 {
		return 0
	}
	s := append([]float64(nil), latencies...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
