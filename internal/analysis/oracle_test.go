package analysis_test

import (
	"reflect"
	"testing"

	"modpeg/internal/analysis"
	"modpeg/internal/core"
	"modpeg/internal/grammars"
	"modpeg/internal/grammartest"
	"modpeg/internal/peg"
	"modpeg/internal/transform"
)

// facts is everything Analyze exports about a grammar, in a form both
// implementations can fill and reflect.DeepEqual can compare.
type facts struct {
	Nullable, Reachable, Recursive, LeftRecursive, DirectLeftRec map[string]bool
	FirstPrecise, Valued, BacktrackPrefixes                      map[string]bool
	RefCount, Cost                                               map[string]int
	First                                                        map[string]string
	Check, CheckTransformed                                      string
}

func firstStrings(m map[string]*analysis.ByteSet) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.String()
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// requireReference fails t unless Analyze agrees with the reference on
// every exported fact of g and on every sub-expression of its bodies.
func requireReference(t *testing.T, label string, g *peg.Grammar) {
	t.Helper()
	got, want := analysis.Analyze(g), refAnalyze(g)
	gf := facts{got.Nullable, got.Reachable, got.Recursive, got.LeftRecursive, got.DirectLeftRec,
		got.FirstPrecise, got.Valued, got.BacktrackPrefixes(), got.RefCount, got.Cost,
		firstStrings(got.First), errText(got.Check()), errText(got.CheckTransformed())}
	wf := facts{want.Nullable, want.Reachable, want.Recursive, want.LeftRecursive, want.DirectLeftRec,
		want.FirstPrecise, want.Valued, want.BacktrackPrefixes(), want.RefCount, want.Cost,
		firstStrings(want.First), errText(want.Check()), errText(want.CheckTransformed())}
	gv, wv := reflect.ValueOf(gf), reflect.ValueOf(wf)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: %s differs\n got: %v\nwant: %v", label, gv.Type().Field(i).Name, gv.Field(i), wv.Field(i))
		}
	}
	for _, name := range g.Order {
		peg.Walk(g.Prods[name].Choice, func(e peg.Expr) {
			gs, gp := analysis.FirstOfExpr(got, e)
			ws, wp := want.firstOf(e)
			if *gs != *ws || gp != wp || analysis.NullableExpr(got, e) != want.exprNullable(e) || got.ExprValued(e) != want.ExprValued(e) {
				t.Errorf("%s: %s: expression facts differ on %s", label, name, peg.FormatExpr(e))
			}
		})
	}
}

// oracleConfigs are the optimizer pipelines whose output the engines
// run: the defaults, the naive-packrat baseline, and each Table 2
// leave-one-out configuration.
func oracleConfigs() map[string]transform.Options {
	all := transform.Defaults()
	without := func(f func(*transform.Options)) transform.Options {
		o := all
		f(&o)
		return o
	}
	return map[string]transform.Options{
		"defaults":             all,
		"baseline":             transform.Baseline(),
		"no-transient-marking": without(func(o *transform.Options) { o.MarkTransient = false }),
		"no-inlining":          without(func(o *transform.Options) { o.Inline = false }),
		"no-folding":           without(func(o *transform.Options) { o.FoldPrefixes, o.MergeClasses = false, false }),
		"no-dead-code":         without(func(o *transform.Options) { o.DeadCode = false }),
		"expanded-repetitions": without(func(o *transform.Options) { o.ExpandRepetitions = true }),
	}
}

// handGrammars cover what composition never produces: undefined
// references, an undefined root, and left recursion no pass can rewrite.
func handGrammars() map[string]*peg.Grammar {
	build := func(root string, prods ...*peg.Production) *peg.Grammar {
		g := &peg.Grammar{Root: root}
		for _, p := range prods {
			g.Add(p)
		}
		return g
	}
	return map[string]*peg.Grammar{
		"undefined-ref": build("S",
			peg.DefineProd("S", 0, peg.Alt(peg.SeqOf(peg.Ref("Missing"), peg.Lit("x")), peg.Ref("A"))),
			peg.DefineProd("A", peg.AttrVoid, peg.Alt(peg.SeqOf(peg.Opt(peg.Ref("Gone")), peg.Star(peg.Ref("A")))))),
		"undefined-root": build("Nowhere", peg.DefineProd("S", 0, peg.Alt(peg.Lit("s")))),
		"no-root":        build("", peg.DefineProd("S", 0, peg.Alt(peg.Ref("S"), peg.Lit("s")))),
		"indirect-left": build("A",
			peg.DefineProd("A", 0, peg.Alt(peg.SeqOf(peg.Ref("B"), peg.Lit("a")), peg.Lit("a"))),
			peg.DefineProd("B", peg.AttrText, peg.Alt(peg.SeqOf(peg.Opt(peg.Lit("b")), peg.Ref("A")), peg.Ahead(peg.Dot())))),
	}
}

// TestAnalyzeMatchesReference holds the dense-ID analysis to the
// string-keyed reference on every bundled grammar, before and after each
// optimizer pipeline, on extensions of three base grammars, and on
// hand-built grammars with undefined names.
func TestAnalyzeMatchesReference(t *testing.T) {
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
		requireReference(t, name, g)
		for cfg, opts := range oracleConfigs() {
			tg, _, err := transform.Apply(g, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cfg, err)
			}
			requireReference(t, name+"/"+cfg, tg)
		}
	}
	for name, g := range handGrammars() {
		requireReference(t, name, g)
	}
}

// FuzzAnalyze requires the dense-ID analysis to equal the string-keyed
// reference on fuzzed grammars, and again after the default optimizer
// pipeline when it accepts the grammar (which adds left-recursion
// iteration nodes).
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 1, 2, 0, 10, 1, 1, 7, 1, 1, 1, 0, 2, 1, 2, 1})
	f.Add([]byte{7, 9, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 2, 1, 0, 3, 3, 5, 8, 13, 21})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := grammartest.Decode(data)
		requireReference(t, "fuzzed", g)
		if tg, _, err := transform.Apply(g, transform.Defaults()); err == nil {
			requireReference(t, "fuzzed/defaults", tg)
		}
	})
}
