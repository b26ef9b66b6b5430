package transform

import (
	"reflect"
	"testing"

	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/grammartest"
	"modpeg/internal/peg"
)

// applyWith runs Apply's passes in Apply's order with the given inliner.
func applyWith(g *peg.Grammar, opts Options, inliner func(*peg.Grammar, *Report)) (*peg.Grammar, *Report, error) {
	out := g.Clone()
	rep := &Report{}
	if opts.NormalizeClasses {
		normalizeClasses(out, rep)
	}
	if opts.LeftRecursion {
		if err := rewriteLeftRecursion(out, rep); err != nil {
			return nil, nil, err
		}
	}
	if opts.ExpandRepetitions {
		expandRepetitions(out, rep)
	}
	if opts.Inline {
		inliner(out, rep)
	}
	if opts.FoldPrefixes {
		foldPrefixes(out, rep)
	}
	if opts.MergeClasses {
		mergeClasses(out, rep)
	}
	if opts.DeadCode {
		deadCode(out, rep)
	}
	if opts.MarkTransient {
		markTransient(out, rep)
	}
	return out, rep, nil
}

// requireReferenceInline fails t unless the pipeline opts, run once with
// the inliner and once with the reference inliner, prints the same
// grammar and reports the same counts, and unless the inliner's run
// equals Apply's (which pins applyWith to Apply). The later passes
// rewrite in place, so a copy the inliner shared between call sites would
// show up as a difference.
func requireReferenceInline(t *testing.T, label string, g *peg.Grammar, opts Options) {
	t.Helper()
	got, gotRep, gotErr := applyWith(g, opts, inline)
	want, wantRep, wantErr := applyWith(g, opts, refInline)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if gf, wf := peg.FormatGrammar(got), peg.FormatGrammar(want); gf != wf {
		t.Errorf("%s: grammar differs from the reference inliner's\n got:\n%s\nwant:\n%s", label, gf, wf)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("%s: report differs\n got: %+v\nwant: %+v", label, *gotRep, *wantRep)
	}
	applied, appliedRep, err := Apply(g, opts)
	if err != nil {
		t.Fatalf("%s: Apply: %v", label, err)
	}
	if peg.FormatGrammar(applied) != peg.FormatGrammar(got) || !reflect.DeepEqual(appliedRep, gotRep) {
		t.Errorf("%s: applyWith(inline) differs from Apply", label)
	}
}

// inlineConfigs are the pipelines that run the inliner: the defaults and
// each Table 2 leave-one-out configuration that keeps it, expanded
// repetitions included.
func inlineConfigs() map[string]Options {
	without := func(f func(*Options)) Options {
		o := Defaults()
		f(&o)
		return o
	}
	return map[string]Options{
		"defaults":             Defaults(),
		"no-transient-marking": without(func(o *Options) { o.MarkTransient = false }),
		"no-folding":           without(func(o *Options) { o.FoldPrefixes, o.MergeClasses = false, false }),
		"no-dead-code":         without(func(o *Options) { o.DeadCode = false }),
		"expanded-repetitions": without(func(o *Options) { o.ExpandRepetitions = true }),
	}
}

// TestInlineMatchesReference holds the one-analysis inliner to the
// reference that re-analysed every round, on every bundled grammar and on
// extensions of three base grammars, under every pipeline that inlines.
func TestInlineMatchesReference(t *testing.T) {
	composed := map[string]*peg.Grammar{}
	for _, top := range grammars.TopModules() {
		g, err := grammars.Compose(top)
		if err != nil {
			t.Fatal(err)
		}
		composed[top] = g
	}
	for name, mods := range grammartest.Extensions {
		g, err := core.Compose("t", core.MultiResolver{core.MapResolver(mods), grammars.Resolver()})
		if err != nil {
			t.Fatalf("%s extension: %v", name, err)
		}
		composed["ext/"+name] = g
	}
	for name, g := range composed {
		for cfg, opts := range inlineConfigs() {
			requireReferenceInline(t, name+"/"+cfg, g, opts)
		}
	}
}

// FuzzInline holds the inliner to the reference on fuzzed grammars, under
// the defaults and with expanded repetitions.
func FuzzInline(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 2, 0, 10, 1, 1, 7, 1, 1, 1, 0, 2, 1, 2, 1})
	f.Add([]byte{7, 9, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 2, 1, 0, 3, 3, 5, 8, 13, 21})
	expanded := Defaults()
	expanded.ExpandRepetitions = true
	f.Fuzz(func(t *testing.T, data []byte) {
		g := grammartest.Decode(data)
		requireReferenceInline(t, "defaults", g, Defaults())
		requireReferenceInline(t, "expanded-repetitions", g, expanded)
	})
}
