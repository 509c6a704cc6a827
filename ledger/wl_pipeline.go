package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"llhsc/internal/bench"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// pipelineCheck returns a check that runs p in process with limits,
// verifies the report with verify and, when traced, replays the layer
// calls under the core.run span.
func pipelineCheck(pick func(seq int64) (*core.Pipeline, func(*core.Report) error), limits core.Limits, ctr *counters) func(context.Context, int, int64, *tracer, int32) error {
	return func(ctx context.Context, _ int, seq int64, tr *tracer, root int32) error {
		p, verify := pick(seq)
		run := tr.begin("core.run", root, seq)
		report, err := p.RunContext(ctx, limits)
		tr.end(run)
		if err != nil {
			return err
		}
		addRunStats(ctr, report.Stats)
		if err := verify(report); err != nil {
			return err
		}
		if tr == nil {
			return nil
		}
		// The replay's own span keeps its wall time out of the check's
		// self time; the replayed calls hang under core.run.
		replay := tr.begin("trace.replay", root, seq)
		ok, err := replayPipeline(ctx, tr, run, seq, ctr, p, limits, nil)
		tr.end(replay)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if ok != report.OK() {
			return fmt.Errorf("replayed verdict ok=%v differs from the run's ok=%v", ok, report.OK())
		}
		return nil
	}
}

// uartBase is the MMIO base of UART i on bench.SyntheticProductLine.
func uartBase(i int) uint32 { return uint32(0x10000000 + i*0x10000) }

// setupE12 is the `llhsc check` path at E12 scale: eight VMs on an
// eight-CPU, eight-UART board, enumerative, default limits, one caller.
// The line is clean by construction, so the known answer is OK with
// VM k holding exactly cpu@k and UART k.
func setupE12(int64) (*instance, error) {
	p, err := bench.SyntheticProductLine(8, 8, 8)
	if err != nil {
		return nil, err
	}
	ctr := newCounters()
	verify := func(r *core.Report) error {
		if !r.OK() {
			return fmt.Errorf("clean line reported violations: %v", firstViolations(r.AllViolations()))
		}
		if len(r.VMs) != 8 {
			return fmt.Errorf("got %d VM products, want 8", len(r.VMs))
		}
		for k, vm := range r.VMs {
			if err := expectDevices(vm.Tree, []int{k}, []int{k}); err != nil {
				return fmt.Errorf("%s: %w", vm.Name, err)
			}
		}
		all := []int{0, 1, 2, 3, 4, 5, 6, 7}
		if err := expectDevices(r.Platform.Tree, all, all); err != nil {
			return fmt.Errorf("platform: %w", err)
		}
		if r.PlatformC == "" || r.ConfigC == "" {
			return fmt.Errorf("clean line generated no Bao configuration")
		}
		return nil
	}
	pick := func(int64) (*core.Pipeline, func(*core.Report) error) { return p, verify }
	return &instance{
		callers: 1,
		warmup:  20,
		check:   pipelineCheck(pick, core.Limits{}, ctr),
		oracles: []func(context.Context) error{infeasibleOracle},
		ctr:     ctr,
	}, nil
}

// infeasibleOracle checks that five VMs cannot share four exclusive
// CPUs: the allocation check must reject the request.
func infeasibleOracle(ctx context.Context) error {
	p, err := bench.SyntheticProductLine(4, 4, 4)
	if err != nil {
		return err
	}
	p.VMConfigs = append(p.VMConfigs, p.VMConfigs[0])
	report, err := p.RunContext(ctx, core.Limits{})
	if err != nil {
		return fmt.Errorf("5 VMs over 4 CPUs: %w", err)
	}
	if len(report.Allocation) == 0 {
		return fmt.Errorf("5 VMs over 4 CPUs: allocation accepted, want infeasible")
	}
	return nil
}

// expectDevices checks that tree holds exactly the given CPUs and UARTs
// of the synthetic board.
func expectDevices(tree *dts.Tree, cpus, uarts []int) error {
	var gotCPUs, gotUARTs, want []string
	for _, n := range tree.Root.Children {
		switch {
		case n.Name == "cpus":
			for _, c := range n.Children {
				gotCPUs = append(gotCPUs, c.Name)
			}
		case strings.HasPrefix(n.Name, "uart@"):
			gotUARTs = append(gotUARTs, n.Name)
		}
	}
	for _, c := range cpus {
		want = append(want, fmt.Sprintf("cpu@%d", c))
	}
	if strings.Join(gotCPUs, ",") != strings.Join(want, ",") {
		return fmt.Errorf("cpus %v, want %v", gotCPUs, want)
	}
	want = want[:0]
	for _, u := range uarts {
		want = append(want, fmt.Sprintf("uart@%x", uartBase(u)))
	}
	if strings.Join(gotUARTs, ",") != strings.Join(want, ",") {
		return fmt.Errorf("uarts %v, want %v", gotUARTs, want)
	}
	return nil
}

func firstViolations(vs []constraints.Violation) string {
	var b strings.Builder
	for i, v := range vs {
		if i == 3 {
			fmt.Fprintf(&b, " ... (%d total)", len(vs))
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return b.String()
}

// e16Lines is the size of the e16 pool and e16Planted how many of its
// lines carry a planted overlap, so every run has the same mix. The
// split is uneven on purpose: with half the lines faulty the median
// latency would sit on the boundary between the two lines' latencies
// and swing with either.
const (
	e16Lines   = 8
	e16Planted = 3
)

// setupE16 is the lifted path: the two-CPU, eight-UART line with 510
// valid products, two VMs, ModeLifted, one caller. Each line of the
// pool plants zero or one overlap: UART b is moved to start off bytes
// into UART a's window, so the known answer is a semantic:overlap
// finding whose witness lies in [base(a)+off, base(a)+0x1000) and whose
// witness product selects both UARTs.
func setupE16(seed int64) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	type line struct {
		p      *core.Pipeline
		verify func(*core.Report) error
	}
	lines := make([]line, e16Lines)
	order := rng.Perm(e16Lines)
	for i := range lines {
		p, err := bench.SyntheticProductLine(2, 8, 2)
		if err != nil {
			return nil, err
		}
		p.Mode = core.ModeLifted
		if n, complete := featmodel.NewAnalyzer(p.Model).CountProducts(0); !complete || n != 510 {
			return nil, fmt.Errorf("e16 line has %d valid products, want 510", n)
		}
		lines[i] = line{p: p, verify: expectCleanLifted}
		if order[i] >= e16Planted {
			continue
		}
		a := rng.Intn(8)
		b := (a + 1 + rng.Intn(7)) % 8
		off := uint32(rng.Intn(16)) * 0x100
		node := p.Core.Root.Child(fmt.Sprintf("uart@%x", uartBase(b)))
		if node == nil {
			return nil, fmt.Errorf("e16: uart%d missing from the synthetic board", b)
		}
		node.SetProperty(&dts.Property{Name: "reg", Value: dts.CellsValue(uartBase(a)+off, 0x1000)})
		lo, hi := uint64(uartBase(a)+off), uint64(uartBase(a))+0x1000
		lines[i].verify = expectPlantedOverlap(a, b, lo, hi)
	}
	ctr := newCounters()
	pick := func(seq int64) (*core.Pipeline, func(*core.Report) error) {
		l := lines[seq%e16Lines]
		return l.p, l.verify
	}
	return &instance{
		callers: 1,
		warmup:  2 * e16Lines,
		check:   pipelineCheck(pick, core.Limits{}, ctr),
		ctr:     ctr,
	}, nil
}

func expectCleanLifted(r *core.Report) error {
	if !r.OK() {
		return fmt.Errorf("clean line reported violations: %v", firstViolations(r.AllViolations()))
	}
	if r.ConfigC == "" {
		return fmt.Errorf("clean line generated no Bao configuration")
	}
	return nil
}

// expectPlantedOverlap accepts only semantic:overlap findings between
// UARTs a and b, each with a witness address in [lo, hi) and a witness
// product selecting both UARTs.
func expectPlantedOverlap(a, b int, lo, hi uint64) func(*core.Report) error {
	paths := map[string]bool{
		fmt.Sprintf("/uart@%x", uartBase(a)): true,
		fmt.Sprintf("/uart@%x", uartBase(b)): true,
	}
	return func(r *core.Report) error {
		if len(r.Lifted) == 0 {
			return fmt.Errorf("planted overlap of uart%d and uart%d not reported", a, b)
		}
		for _, f := range r.Lifted {
			v := f.Violation
			if f.Family != "semantic" || v.Rule != "semantic:overlap" || !paths[v.Path] {
				return fmt.Errorf("unexpected finding for the overlap of uart%d and uart%d: %v", a, b, f)
			}
			var w uint64
			i := strings.LastIndex(v.Message, "at address 0x")
			if i < 0 {
				return fmt.Errorf("overlap finding without a witness address: %v", f)
			}
			if _, err := fmt.Sscanf(v.Message[i:], "at address 0x%x", &w); err != nil || w < lo || w >= hi {
				return fmt.Errorf("witness outside the planted range [0x%x, 0x%x): %v", lo, hi, f)
			}
			if !f.Config[fmt.Sprintf("uart%d", a)] || !f.Config[fmt.Sprintf("uart%d", b)] {
				return fmt.Errorf("witness product does not select both UARTs: %v", f)
			}
		}
		return nil
	}
}
