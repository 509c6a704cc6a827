package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"llhsc/internal/conform"
	"llhsc/internal/constraints"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/dts/preproc"
	"llhsc/internal/featmodel"
)

// corpusDir holds the kernel-style fixtures, relative to the repository
// root the benchmark runs from.
const corpusDir = "testdata/corpus"

// corpusGeneratedBytes is how much seed-generated source joins each
// pass: sources are drawn until their total reaches it, so the pass's
// work hardly depends on the seed.
const corpusGeneratedBytes = 8 << 10

// overlayBase is the `corpus:base=<file>` annotation naming the tree an
// overlay applies to.
var overlayBase = regexp.MustCompile(`corpus:base=([^\s*]+)`)

// corpusItem is one top-level source of a corpus pass.
type corpusItem struct {
	name, src string
	// base names the item an overlay applies to ("" for plain trees).
	base string
	// generated sources have no known semantic verdict; only their
	// re-print is checked.
	generated bool
}

// setupCorpus loads every file under testdata/corpus into memory and
// adds seed-generated conform sources. One check is one pass over all
// top-level items: preprocess → parse → byte-stable re-print → overlay
// apply (cross-checked against the delta.FromOverlay product) →
// semantic check, with the corpus files' known answer being clean.
func setupCorpus(seed int64) (*instance, error) {
	files := preproc.MapFS{}
	err := filepath.WalkDir(corpusDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files[filepath.ToSlash(path)] = string(data)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var plain, overlays []corpusItem
	for name, src := range files {
		if filepath.Dir(name) != corpusDir {
			continue
		}
		switch filepath.Ext(name) {
		case ".dts":
			plain = append(plain, corpusItem{name: name, src: src})
		case ".dtso":
			m := overlayBase.FindStringSubmatch(src)
			if m == nil {
				return nil, fmt.Errorf("corpus: overlay %s has no corpus:base= annotation", name)
			}
			overlays = append(overlays, corpusItem{name: name, src: src, base: corpusDir + "/" + m[1]})
		}
	}
	byName := func(items []corpusItem) {
		sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })
	}
	byName(plain)
	byName(overlays)
	if len(plain) == 0 {
		return nil, fmt.Errorf("corpus: no .dts files under %s", corpusDir)
	}
	items := append(plain, overlays...)
	rng := rand.New(rand.NewSource(seed))
	for size := 0; size < corpusGeneratedBytes; {
		c := conform.GenerateCase(rng.Int63())
		size += len(c.Source)
		items = append(items, corpusItem{name: fmt.Sprintf("gen/%d.dts", c.Seed), src: c.Source, generated: true})
	}
	opts := preproc.Options{FS: files, IncludePaths: []string{corpusDir, corpusDir + "/include"}}
	ctr := newCounters()
	check := func(ctx context.Context, _ int, seq int64, tr *tracer, root int32) error {
		trees := make(map[string]*dts.Tree, len(plain))
		for _, it := range items {
			if err := corpusItemCheck(ctx, it, opts, trees, ctr, tr, root, seq); err != nil {
				return fmt.Errorf("%s: %w", it.name, err)
			}
		}
		return nil
	}
	return &instance{callers: 1, warmup: 20, check: check, ctr: ctr}, nil
}

// corpusItemCheck runs one item through the front end and checks it;
// plain trees are recorded in trees for the overlays that follow.
func corpusItemCheck(ctx context.Context, it corpusItem, opts preproc.Options, trees map[string]*dts.Tree,
	ctr *counters, tr *tracer, root int32, seq int64) error {
	var err error
	var res *preproc.Result
	tr.do("preproc", root, seq, func(int32) { res, err = preproc.Source(it.name, it.src, opts) })
	if err != nil {
		return fmt.Errorf("preprocess: %w", err)
	}
	ctr.add("preproc.bytes_out", float64(len(res.Text)))
	var tree *dts.Tree
	tr.do("dts.parse", root, seq, func(int32) { tree, err = dts.Parse(it.name, res.Text) })
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	if tr != nil {
		ctr.add("dts.nodes", float64(countNodes(tree.Root)))
	}
	if err := reprintStable(tree, tr, root, seq); err != nil {
		return err
	}
	if !tree.Plugin {
		trees[it.name] = tree
		return semanticClean(ctx, tree, it.generated, tr, root, seq)
	}

	base := trees[it.base]
	if base == nil {
		return fmt.Errorf("overlay base %s was not loaded", it.base)
	}
	var merged, viaDelta *dts.Tree
	tr.do("dts.overlay_apply", root, seq, func(int32) { merged, err = dts.ApplyOverlay(base, tree) })
	if err != nil {
		return fmt.Errorf("apply overlay: %w", err)
	}
	if err := semanticClean(ctx, merged, false, tr, root, seq); err != nil {
		return fmt.Errorf("after applying to %s: %w", it.base, err)
	}
	tr.do("delta.apply", root, seq, func(int32) {
		var set *delta.Set
		if set, err = delta.FromOverlay(it.name, tree, "OVERLAY"); err == nil {
			viaDelta, _, err = set.Apply(base, featmodel.ConfigOf("OVERLAY"))
		}
	})
	if err != nil {
		return fmt.Errorf("overlay as delta: %w", err)
	}
	var direct, derived string
	tr.do("dts.print", root, seq, func(int32) { direct, derived = merged.Print(), viaDelta.Print() })
	if direct != derived {
		return fmt.Errorf("delta.FromOverlay product differs from ApplyOverlay onto %s", it.base)
	}
	return nil
}

// reprintStable checks that printing, re-parsing and printing again
// yields the same bytes.
func reprintStable(tree *dts.Tree, tr *tracer, root int32, seq int64) error {
	var printed, again string
	var re *dts.Tree
	var err error
	tr.do("dts.print", root, seq, func(int32) { printed = tree.Print() })
	tr.do("dts.parse", root, seq, func(int32) { re, err = dts.Parse("reprint.dts", printed) })
	if err != nil {
		return fmt.Errorf("printed output does not re-parse: %w", err)
	}
	tr.do("dts.print", root, seq, func(int32) { again = re.Print() })
	if again != printed {
		return fmt.Errorf("re-print is not byte-identical")
	}
	return nil
}

// semanticClean runs the semantic checker; unless the tree is generated
// (no known verdict) any collision or violation is a wrong verdict.
func semanticClean(ctx context.Context, tree *dts.Tree, generated bool, tr *tracer, root int32, seq int64) error {
	var collisions []constraints.Collision
	var violations []constraints.Violation
	var err error
	tr.do("constraints.semantic", root, seq, func(int32) {
		collisions, violations, err = constraints.NewSemanticChecker().CheckContext(ctx, tree)
	})
	switch {
	case err != nil:
		return fmt.Errorf("semantic check: %w", err)
	case generated:
		return nil
	case len(collisions) > 0 || len(violations) > 0:
		msgs := make([]string, 0, len(collisions)+len(violations))
		for _, c := range collisions {
			msgs = append(msgs, c.String())
		}
		for _, v := range violations {
			msgs = append(msgs, v.String())
		}
		return fmt.Errorf("clean fixture reported: %s", strings.Join(msgs, "; "))
	}
	return nil
}

func countNodes(n *dts.Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}
