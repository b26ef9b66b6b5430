package modpeg

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"modpeg/internal/grammars"
	"modpeg/internal/peg"
	"modpeg/internal/vm"
)

func TestNewBundledCalc(t *testing.T) {
	p, err := New("calc.full")
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Parse("in", "1 + 2**3")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatValue(v); got != `(Add (Num "1") (Pow (Num "2") (Num "3")))` {
		t.Fatalf("value = %s", got)
	}
	if p.Top() != "calc.full" {
		t.Fatal("Top")
	}
	if len(p.Modules()) < 4 {
		t.Fatalf("modules = %v", p.Modules())
	}
	if p.Check() != nil {
		t.Fatal("Check must be clean")
	}
	if s := p.Stats(); s.Productions == 0 {
		t.Fatal("stats empty")
	}
	if !strings.Contains(p.Grammar(), "calc.core.Sum") {
		t.Fatal("Grammar rendering")
	}
	if !strings.Contains(p.OptimizationReport(), "transient") {
		t.Fatalf("report = %q", p.OptimizationReport())
	}
	if p.OptimizedStats().Productions > p.Stats().Productions {
		t.Fatal("optimization must not add productions here")
	}
	if !strings.Contains(p.OptimizedGrammar(), "leftrec") {
		t.Fatal("optimized grammar must show leftrec rewrite")
	}
}

func TestNewWithInMemoryModules(t *testing.T) {
	p, err := New("tiny", WithModules(map[string]string{
		"tiny": "module tiny;\npublic S = $([a-z]+) !. ;\n",
	}), WithoutBundledGrammars())
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Parse("in", "hello")
	if err != nil {
		t.Fatal(err)
	}
	tok, ok := v.(*Token)
	if !ok || tok.Text != "hello" {
		t.Fatalf("value = %v", FormatValue(v))
	}
}

func TestNewUserModulesCanExtendBundled(t *testing.T) {
	p, err := New("user.top", WithModules(map[string]string{
		"user.top": `
module user.top;
import calc.core;
import user.ext;
option root = calc.core.Program;
`,
		"user.ext": `
module user.ext;
modify calc.core;
import calc.lex;
Atom += <neg> MINUS e:Atom @Neg before <num> ;
`,
	}))
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Parse("in", "-3 + 4")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatValue(v); got != `(Add (Neg (Num "3")) (Num "4"))` {
		t.Fatalf("value = %s", got)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New("calc.full", WithoutBundledGrammars()); err == nil {
		t.Fatal("no sources must fail")
	}
	if _, err := New("no.such.module"); err == nil {
		t.Fatal("unknown module must fail")
	}
	if _, err := New("bad", WithModules(map[string]string{
		"bad": "module bad;\npublic S = Missing ;\n",
	})); err == nil {
		t.Fatal("composition errors must surface")
	}
}

// TestNewSharesBundledModules composes every bundled grammar from several
// goroutines at once, through grammars.Compose and through New, which
// share one parse of each bundled module. Under -race this shows the
// shared modules are only read; every result must print as a sequential
// composition does.
func TestNewSharesBundledModules(t *testing.T) {
	want := map[string]string{}
	for _, top := range BundledGrammars() {
		p, err := New(top)
		if err != nil {
			t.Fatal(err)
		}
		want[top] = p.Grammar()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, top := range BundledGrammars() {
				if g, err := grammars.Compose(top); err != nil {
					t.Error(err)
				} else if peg.FormatGrammar(g) != want[top] {
					t.Errorf("grammars.Compose(%q) differs from a sequential composition", top)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, top := range BundledGrammars() {
				if p, err := New(top); err != nil {
					t.Error(err)
				} else if p.Grammar() != want[top] {
					t.Errorf("New(%q) differs from a sequential composition", top)
				}
			}
		}()
	}
	wg.Wait()
}

// TestUserModuleShadowsBundled: a module given by WithModules under a
// bundled module's name replaces it, also once the bundled module has
// been parsed and shared, and leaves the shared parse as it was. A syntax
// error in such a module reads as it always has.
func TestUserModuleShadowsBundled(t *testing.T) {
	bundled, err := New(grammars.JavaCore)
	if err != nil {
		t.Fatal(err)
	}
	src, err := grammars.Source("java.stmt")
	if err != nil {
		t.Fatal(err)
	}
	shadow := strings.Replace(src, "    <block>    Block", "    <skip>     \"skip\" SEMI @Skip\n  / <block>    Block", 1)
	p, err := New(grammars.JavaCore, WithModules(map[string]string{"java.stmt": shadow}))
	if err != nil {
		t.Fatal(err)
	}
	const in = "class A { void f() { skip; } }"
	for _, c := range []struct {
		p    *Parser
		want string
	}{
		{p, "(Block [(Skip)])"},
		{bundled, `(Block [(ExprStmt (Id "skip"))])`},
	} {
		v, err := c.p.Parse("in", in)
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatValue(v); !strings.Contains(got, c.want) {
			t.Errorf("value = %s, want it to contain %s", got, c.want)
		}
	}
	again, err := New(grammars.JavaCore)
	if err != nil {
		t.Fatal(err)
	}
	if again.Grammar() != bundled.Grammar() {
		t.Error("composing a shadowing module changed the bundled grammar")
	}

	for _, c := range []struct{ src, want string }{
		{"module java.stmt;\npublic Statement = ( \"x\" ;\n",
			"java.stmt.mpeg:2:26: expected ')', found ';'\njava.stmt.mpeg:2:26: expected ')', found ';'"},
		{"module java.other;\npublic Statement = \"x\" ;\n",
			"java.stmt.mpeg:1:1: module declares name \"java.other\" but was loaded as \"java.stmt\"\n" +
				"java.stmt.mpeg:1:1: module declares name \"java.other\" but was loaded as \"java.stmt\""},
	} {
		_, err := New(grammars.JavaCore, WithModules(map[string]string{"java.stmt": c.src}))
		if err == nil || err.Error() != c.want {
			t.Errorf("error = %q, want %q", err, c.want)
		}
	}
}

func TestEngineAndOptimizationOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"optimized", nil},
		{"naive", []Option{
			WithOptimizations(BaselineOptimizations()),
			WithEngine(EngineNaivePackrat()),
		}},
		{"backtracking", []Option{WithEngine(EngineBacktracking())}},
	} {
		p, err := New("json.value", tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		v, stats, err := p.ParseRequest(context.Background(), "in", `{"a": [1, 2, {"b": null}]}`, Request{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if FindNode(v, "Member") == nil {
			t.Fatalf("%s: no Member node", tc.name)
		}
		if tc.name == "backtracking" && stats.MemoStores != 0 {
			t.Fatal("backtracking must not memoize")
		}
		if tc.name == "naive" && stats.MemoStores == 0 {
			t.Fatal("naive must memoize")
		}
	}
}

func TestParseErrorsAreReported(t *testing.T) {
	p, err := New("json.value")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Parse("doc.json", `{"a": }`)
	if err == nil || !strings.Contains(err.Error(), "doc.json") {
		t.Fatalf("err = %v", err)
	}
}

func TestGenerateGo(t *testing.T) {
	p, err := New("calc.core")
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.GenerateGo("calcparser")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	if !strings.Contains(s, "package calcparser") || !strings.Contains(s, "func Parse(input string)") {
		t.Fatalf("generated source looks wrong:\n%.200s", s)
	}
}

func TestValueHelpers(t *testing.T) {
	p, err := New("calc.core")
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Parse("in", "1+2*3")
	if err != nil {
		t.Fatal(err)
	}
	if TextOf(v) != "123" {
		t.Fatalf("TextOf = %q", TextOf(v))
	}
	if len(FindAllNodes(v, "Num")) != 3 {
		t.Fatal("FindAllNodes")
	}
	if !ValuesEqual(v, v) {
		t.Fatal("ValuesEqual")
	}
	if !strings.Contains(IndentValue(v), "Mul") {
		t.Fatal("IndentValue")
	}
	if BundledGrammars()[0] == "" {
		t.Fatal("BundledGrammars")
	}
}

func TestLintAndJSONAndTraceAPI(t *testing.T) {
	p, err := New("smelly", WithModules(map[string]string{
		"smelly": "module smelly;\npublic S = \"a\" / \"ab\" ;\nDead = \"d\" ;\n",
	}))
	if err != nil {
		t.Fatal(err)
	}
	warnings := p.Lint()
	if len(warnings) != 2 {
		t.Fatalf("lint = %v", warnings)
	}

	// calc.full's pow extension retries Atom at the same position, so the
	// trace is guaranteed to show a memo hit.
	calc, err := New("calc.full")
	if err != nil {
		t.Fatal(err)
	}
	v, err := calc.Parse("in", "1+2")
	if err != nil {
		t.Fatal(err)
	}
	js, err := ValueToJSON(v)
	if err != nil || !strings.Contains(js, `"name": "Add"`) {
		t.Fatalf("json = %v / %.80s", err, js)
	}

	var trace strings.Builder
	if _, _, err := calc.ParseRequest(context.Background(), "in", "1+2",
		Request{Hook: calc.NewCallTrace(&trace)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "memo-hit") {
		t.Fatal("trace must show memo activity")
	}
}

func TestSessionFacade(t *testing.T) {
	p, err := New("calc.full")
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSession()
	inputs := []string{"1 + 2**3", "4*5", "1 + 2**3"}
	for _, in := range inputs {
		want, wantStats, err := p.ParseRequest(context.Background(), "in", in, Request{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := s.ParseRequest(context.Background(), "in", in, Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !ValuesEqual(got, want) {
			t.Fatalf("input %q: session %s, cold %s", in, FormatValue(got), FormatValue(want))
		}
		if gotStats != wantStats {
			t.Fatalf("input %q: stats drift %v vs %v", in, gotStats, wantStats)
		}
	}
	if _, err := s.Parse("bad", "1 +"); err == nil {
		t.Fatal("session must propagate parse errors")
	}
	if v, err := s.Parse("in", "2*3"); err != nil || FormatValue(v) != `(Mul (Num "2") (Num "3"))` {
		t.Fatalf("session after failure: %v %v", v, err)
	}
}

func TestParseBatchFacade(t *testing.T) {
	p, err := New("json.value")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		`{"a": 1, "b": [true, false]}`,
		`not json`,
		`[1, 2, 3]`,
		`"hello"`,
	}
	results := p.ParseBatch(context.Background(), "doc", inputs, 0, Limits{})
	if len(results) != len(inputs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		want, err := p.Parse("x", inputs[i])
		if (err == nil) != (r.Err == nil) {
			t.Fatalf("input %d: batch err %v, direct err %v", i, r.Err, err)
		}
		if r.Err == nil && !ValuesEqual(r.Value, want) {
			t.Fatalf("input %d: %s vs %s", i, FormatValue(r.Value), FormatValue(want))
		}
	}
	if results[1].Err == nil {
		t.Fatal("invalid input must fail in place")
	}
	if !strings.Contains(results[1].Err.Error(), "doc[1]") {
		t.Fatalf("batch error must carry the indexed name: %v", results[1].Err)
	}
	total := BatchStats(results)
	if total.Calls <= results[0].Stats.Calls {
		t.Fatalf("aggregate stats too small: %v", total)
	}
}

// TestSteadyStateAllocsJava bounds the pooled path on a real grammar: a
// warm session parsing the Java-subset corpus must allocate at most a
// small fraction of a cold parse (only value slabs and list headers
// remain; the parser machinery is recycled).
func TestSteadyStateAllocsJava(t *testing.T) {
	p, err := New("java.core")
	if err != nil {
		t.Fatal(err)
	}
	input := "class A { int f(int x) { return x * (x + 1); } void g() { f(2); } }"
	cold := testing.AllocsPerRun(10, func() {
		if _, err := p.NewSession().Parse("in", input); err != nil {
			t.Fatal(err)
		}
	})
	s := p.NewSession()
	s.Parse("in", input)
	warm := testing.AllocsPerRun(10, func() {
		if _, err := s.Parse("in", input); err != nil {
			t.Fatal(err)
		}
	})
	// Generous bound: the warm path must shed at least half of the cold
	// allocations even on this small input (on corpus-sized inputs the
	// reduction is >95%; see BenchmarkTable5Sessions).
	if warm > cold/2 {
		t.Errorf("warm session allocs = %.1f, cold = %.1f: want warm <= cold/2", warm, cold)
	}
}

func TestDocumentFacade(t *testing.T) {
	p, err := New("java.core")
	if err != nil {
		t.Fatal(err)
	}
	src := "class A { int f() { int state = 1; state = state + 2; return state; } }"
	d := p.NewDocument("A.java", src)
	if d.Err() != nil {
		t.Fatalf("initial parse: %v", d.Err())
	}
	// Insert a statement; the result must match a from-scratch parse.
	at := strings.Index(src, "state = state") // insert before this statement
	v, stats, err := d.Apply(Edit{Off: at, NewLen: 11, Text: "state = 9; "})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	scratch, err := p.Parse("A.java", d.Text())
	if err != nil {
		t.Fatal(err)
	}
	if !ValuesEqual(v, scratch) {
		t.Fatalf("incremental value diverges:\n doc:     %s\n scratch: %s",
			FormatValue(v), FormatValue(scratch))
	}
	if stats.MemoReused == 0 {
		t.Fatalf("no memo reuse on small edit: %+v", stats)
	}
	if d.Value() == nil || d.Stats() != stats {
		t.Fatal("Document accessors out of sync with Apply result")
	}

	// Breaking and fixing the document reports errors exactly as Parse.
	bad := strings.Index(d.Text(), "()")
	if _, _, err := d.Apply(Edit{Off: bad, OldLen: 1, NewLen: 1, Text: "*"}); err == nil {
		t.Fatalf("mangled document must fail to parse: %q", d.Text())
	}
	if _, perr := p.Parse("A.java", d.Text()); perr == nil || perr.Error() != d.Err().Error() {
		t.Fatalf("document error diverges from Parse:\n doc:   %v\n parse: %v", d.Err(), perr)
	}
	if _, _, err := d.Apply(Edit{Off: bad, OldLen: 1, NewLen: 1, Text: "("}); err != nil {
		t.Fatalf("fixing edit: %v", err)
	}

	// Invalid edits are rejected without touching the document.
	before := d.Text()
	if _, _, err := d.Apply(Edit{Off: len(before) + 1, NewLen: 1, Text: "x"}); err == nil {
		t.Fatal("out-of-bounds edit accepted")
	}
	if d.Text() != before {
		t.Fatal("rejected edit mutated the document")
	}

	// The incremental counters reach the process-wide metrics registry.
	m := Metrics()
	if m.IncrementalApplies == 0 || m.MemoEntriesReused == 0 {
		t.Fatalf("metrics registry missed incremental activity: %+v", m)
	}
}

// TestParseSurface is the ratchet on the parse entry points: one general
// ParseRequest per receiver plus the shorthands listed here (13 methods
// where there were 35). A new parameter belongs in Request, not in a new
// Parse* method.
func TestParseSurface(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeFor[*vm.Program](): {"Parse", "ParseAll", "ParseContext", "ParsePrefix", "ParseRequest"},
		reflect.TypeFor[*vm.Session](): {"Parse", "ParseRequest"},
		reflect.TypeFor[*Parser]():     {"Parse", "ParseBatch", "ParseContextTraced", "ParseRequest"},
		reflect.TypeFor[*Session]():    {"Parse", "ParseRequest"},
	}
	total := 0
	for typ, names := range want {
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Parse") {
				got = append(got, name)
			}
		}
		total += len(got)
		if !slices.Equal(got, names) {
			t.Errorf("%v: Parse* methods %v, want %v", typ, got, names)
		}
	}
	if total != 13 {
		t.Errorf("%d exported Parse* methods on the four receivers, want 13", total)
	}
}

// TestEngineKnobs is the ratchet on the configuration surface: the
// engine options (vm.Options) keep exactly 6 fields and the optimizer
// options (transform.Options) exactly 8. Production picks between two
// engine presets; a new knob has to earn its place in this list.
func TestEngineKnobs(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeFor[EngineOptions](): {"Memoize", "MemoEverything", "ChunkedMemo", "Dispatch", "ScanFusion", "Compiled"},
		reflect.TypeFor[OptimizeOptions](): {"NormalizeClasses", "LeftRecursion", "ExpandRepetitions", "Inline",
			"FoldPrefixes", "MergeClasses", "DeadCode", "MarkTransient"},
	}
	for typ, names := range want {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name)
		}
		if !slices.Equal(got, names) {
			t.Errorf("%v: fields %v, want %v", typ, got, names)
		}
	}
}
