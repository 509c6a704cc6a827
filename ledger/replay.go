package main

import (
	"context"
	"fmt"

	"llhsc/internal/baogen"
	"llhsc/internal/checkcache"
	"llhsc/internal/constraints"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
)

// addRunStats folds the counters a pipeline run exposes in
// Report.Stats into the workload's counters.
func addRunStats(ctr *counters, st core.RunStats) {
	for _, fs := range st.Families {
		ctr.add("sat.conflicts", float64(fs.Conflicts))
		ctr.add("sat.propagations", float64(fs.Propagations))
		ctr.add("sat.solver_calls", float64(fs.SolverCalls))
	}
	sem := st.Families["semantic"]
	ctr.add("constraints.semantic_pairs", float64(sem.Pairs))
	ctr.add("constraints.semantic_pairs_pruned", float64(sem.PairsPruned))
	ctr.add("constraints.semantic_solver_calls", float64(sem.SolverCalls))
	if st.Lifted != nil {
		ctr.add("constraints.lifted_queries", float64(st.Lifted.Queries))
		ctr.add("constraints.lifted_pruned", float64(st.Lifted.Pruned))
	}
}

// replayPipeline re-executes, serially and one public call at a time,
// the layer calls RunContext makes for p, each as a span under parent
// (the run's core.run span). The pipeline's own spans stay off: the
// ledger times only calls made from the benchmark's files. With a cache
// the replay keeps its own checkcache instance, which sees the same
// sequence of trees as the measured one and so hits and misses alike.
// It returns the replayed verdict so callers can cross-check it.
func replayPipeline(ctx context.Context, tr *tracer, parent int32, check int64, ctr *counters,
	p *core.Pipeline, limits core.Limits, cache *checkcache.Cache) (ok bool, err error) {
	ok = true
	var alloc *constraints.AllocationChecker
	tr.do("featmodel.multi_analyzer", parent, check, func(int32) {
		alloc, err = constraints.NewAllocationChecker(p.Model, len(p.VMConfigs))
	})
	if err != nil {
		return false, err
	}
	alloc.SetBudget(limits.Solver)
	tr.do("constraints.allocation_check", parent, check, func(int32) {
		var vs []constraints.Violation
		vs, err = alloc.CheckContext(ctx, p.VMConfigs)
		ok = ok && len(vs) == 0
	})
	if err != nil {
		return false, err
	}

	if p.Mode == core.ModeLifted {
		var lt *delta.LiftedTree
		tr.do("delta.lift", parent, check, func(int32) { lt, err = p.Deltas.Lift(p.Core) })
		if err != nil {
			return false, err
		}
		vs, err := cached(ctx, tr, parent, check, cache, lt.Dump, func(id int32) ([]constraints.Violation, error) {
			var findings []constraints.LiftedFinding
			var err error
			tr.do("constraints.lifted", id, check, func(int32) {
				lc := constraints.NewLiftedChecker(p.Model, p.Schemas)
				lc.Budget = limits.Solver
				lc.SkipInterrupts = p.SkipInterrupts
				lc.LintOnly = p.LintOnly
				findings, err = lc.CheckContext(ctx, lt)
			})
			vs := make([]constraints.Violation, len(findings))
			for i, f := range findings {
				vs[i] = f.Violation
			}
			return vs, err
		})
		if err != nil {
			return false, err
		}
		ok = ok && len(vs) == 0
	}

	configs := append(append([]featmodel.Configuration(nil), p.VMConfigs...),
		featmodel.PlatformUnion(p.VMConfigs))
	trees := make([]*dts.Tree, len(configs))
	for i, cfg := range configs {
		var tree *dts.Tree
		var trace []string
		tr.do("delta.apply", parent, check, func(int32) {
			tree, trace, err = p.Deltas.ApplyContext(ctx, p.Core, cfg, limits.MaxDeltaOps)
		})
		if err != nil {
			return false, err
		}
		for _, name := range trace {
			ctr.add("delta.ops", float64(len(p.Deltas.Delta(name).Ops)))
		}
		trees[i] = tree
		var printed string
		if !p.SkipDTS || cache != nil {
			tr.do("dts.print", parent, check, func(int32) { printed = tree.Print() })
		}
		if p.Mode == core.ModeLifted {
			continue
		}
		families := func(id int32) ([]constraints.Violation, error) {
			return replayFamilies(ctx, tr, id, check, p, limits, tree)
		}
		vs, err := cached(ctx, tr, parent, check, cache, func() string {
			return printed + "\x00" + tree.OriginDump()
		}, families)
		if err != nil {
			return false, err
		}
		ok = ok && len(vs) == 0
	}
	if !ok {
		return false, nil
	}
	tr.do("baogen", parent, check, func(int32) { err = replayBaogen(configs, trees) })
	return true, err
}

// cached runs compute directly without a cache, or through cache.Do
// under a checkcache span.
func cached(ctx context.Context, tr *tracer, parent int32, check int64, cache *checkcache.Cache,
	key func() string, compute func(id int32) ([]constraints.Violation, error)) ([]constraints.Violation, error) {
	if cache == nil {
		return compute(parent)
	}
	var vs []constraints.Violation
	var err error
	tr.do("checkcache", parent, check, func(id int32) {
		vs, _, err = cache.Do(ctx, checkcache.Key(key()), func() ([]constraints.Violation, error) {
			return compute(id)
		})
	})
	return vs, err
}

// replayFamilies runs the four checker families over one product tree,
// in the pipeline's merge order.
func replayFamilies(ctx context.Context, tr *tracer, parent int32, check int64,
	p *core.Pipeline, limits core.Limits, tree *dts.Tree) ([]constraints.Violation, error) {
	var out []constraints.Violation
	var err error
	step := func(name string, fn func() ([]constraints.Violation, error)) {
		if err != nil {
			return
		}
		tr.do(name, parent, check, func(int32) {
			var vs []constraints.Violation
			vs, err = fn()
			out = append(out, vs...)
		})
	}
	step("constraints.syntactic", func() ([]constraints.Violation, error) {
		return constraints.NewSyntacticChecker(p.Schemas).CheckContext(ctx, tree)
	})
	if p.LintOnly {
		return out, err
	}
	step("constraints.semantic", func() ([]constraints.Violation, error) {
		sem := constraints.NewSemanticChecker()
		sem.Budget = limits.Solver
		sem.Strategy = p.SemanticStrategy
		_, vs, err := sem.CheckContext(ctx, tree)
		return vs, err
	})
	step("constraints.memreserve", func() ([]constraints.Violation, error) {
		return constraints.MemReserveChecker{}.CheckContext(ctx, tree)
	})
	if !p.SkipInterrupts {
		step("constraints.interrupt", func() ([]constraints.Violation, error) {
			return constraints.InterruptChecker{}.CheckContext(ctx, tree)
		})
	}
	return out, err
}

// replayBaogen renders the Bao and Jailhouse artifacts as RunContext
// does for a clean report; the last tree is the platform union.
func replayBaogen(configs []featmodel.Configuration, trees []*dts.Tree) error {
	platform, err := baogen.PlatformFromTree(trees[len(trees)-1])
	if err != nil {
		return err
	}
	_ = platform.RenderPlatformC()
	_ = baogen.QEMUArgs(platform, "aarch64")
	_ = baogen.RenderJailhouseRootC(platform)
	vms := make([]*baogen.VM, len(configs)-1)
	for i := range vms {
		vm, err := baogen.VMFromTree(fmt.Sprintf("vm%d", i+1), trees[i])
		if err != nil {
			return err
		}
		vms[i] = vm
		_ = baogen.RenderJailhouseCellC(vm)
	}
	_ = baogen.NewConfig(vms).RenderConfigC()
	return nil
}
