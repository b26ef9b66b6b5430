package vm

import (
	"fmt"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/grammars"
	"modpeg/internal/text"
	"modpeg/internal/transform"
)

// The byte-level hot path (scan fusion, choice tables, first-byte
// dispatch) must be invisible: same values, same errors, same positions
// as the per-byte slow path. These tests pin each fast path against its
// disabled twin and exercise the corners the fuzzers rarely hit.

func noScan() Options {
	o := Optimized()
	o.ScanFusion = false
	return o
}

func errText(prog *Program, input string) string {
	_, _, err := prog.Parse(text.NewSource("input", input))
	if err == nil {
		return ""
	}
	return err.Error()
}

const scanGrammar = `
option root = S;
public S = Word Spacing Num Tail !. ;
void Spacing = [ \t\n]* ;
Word = $([a-z]+) ;
Num = $([0-9]+) ;
void Tail = ";"* ;
`

func TestScanFusionMatchesPerByte(t *testing.T) {
	fused := build(t, scanGrammar, Optimized())
	plain := build(t, scanGrammar, noScan())
	inputs := []string{
		"abc 123",           // runs of every fused class
		"abc \t\n 123;;;",   // long spacing run, literal repetition
		"a 1",               // single-byte runs
		"abc  12x",          // fails inside a run
		"abc",               // truncated: Num's + has no bytes
		"",                  // empty input
		" abc 1",            // leading spacing not allowed by Word
		"abc 123" + ";;;;;", // trailing literal run to EOF
	}
	for _, in := range inputs {
		fv, _, ferr := fused.Parse(text.NewSource("input", in))
		pv, _, perr := plain.Parse(text.NewSource("input", in))
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("%q: fused err=%v, plain err=%v", in, ferr, perr)
		}
		if ferr != nil {
			if ferr.Error() != perr.Error() {
				t.Errorf("%q: error text diverged\n fused: %v\n plain: %v", in, ferr, perr)
			}
			continue
		}
		if ast.Format(fv) != ast.Format(pv) {
			t.Errorf("%q: value diverged: %s vs %s", in, ast.Format(fv), ast.Format(pv))
		}
	}
}

func TestScanFusionMinRepetition(t *testing.T) {
	// (class)+ fused into a scan with min=1: an empty run must fail at
	// the run's start with the same diagnostic as the per-byte engine.
	g := `
option root = S;
public S = Digits !. ;
void Digits = [0-9]+ ;
`
	fused := build(t, g, Optimized())
	plain := build(t, g, noScan())
	if errText(fused, "123") != "" || errText(plain, "123") != "" {
		t.Fatal("digits must parse")
	}
	fe, pe := errText(fused, "x"), errText(plain, "x")
	if fe == "" || fe != pe {
		t.Fatalf("min-unmet diagnostics diverged:\n fused: %s\n plain: %s", fe, pe)
	}
}

func TestScanFusionNegatedClassToEOF(t *testing.T) {
	// [^\n]* compiles to the IndexByte fast path (single missing byte).
	// A final line without a newline scans to EOF and must still parse.
	g := `
option root = S;
public S = Line ("\n" Line)* !. ;
Line = $([^\n]*) ;
`
	fused := build(t, g, Optimized())
	plain := build(t, g, noScan())
	for _, in := range []string{"one\ntwo\nthree", "no newline", "", "\n\n"} {
		fv, _, ferr := fused.Parse(text.NewSource("input", in))
		pv, _, perr := plain.Parse(text.NewSource("input", in))
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("%q: fused err=%v, plain err=%v", in, ferr, perr)
		}
		if ferr == nil && ast.Format(fv) != ast.Format(pv) {
			t.Errorf("%q: value diverged", in)
		}
	}
}

func TestChoiceTablePrunesAlternatives(t *testing.T) {
	// A keyword-style choice: on input starting with 'w', the table
	// must skip the other alternatives without evaluating them.
	g := `
option root = S;
public S = Kw !. ;
Kw = $("if") / $("else") / $("while") / $("for") / $("return") ;
`
	prog := build(t, g, Optimized())
	v, stats, err := prog.Parse(text.NewSource("input", "while"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ast.Format(v); !strings.Contains(got, "while") {
		t.Fatalf("value = %s", got)
	}
	if stats.DispatchSkips == 0 {
		t.Error("choice table pruned nothing on a keyword alternation")
	}
	// Reject: a byte outside every alternative's first set fails at the
	// same position as the dispatch-free engine (the expected-set list
	// legitimately differs — dispatch names the production, the per-alt
	// walk names each literal — but the position may not; this mirrors
	// the Table 2 ablation-equivalence contract).
	nodisp := Optimized()
	nodisp.Dispatch = false
	slow := build(t, g, nodisp)
	_, _, ferr := prog.Parse(text.NewSource("input", "42"))
	_, _, serr := slow.Parse(text.NewSource("input", "42"))
	fe, feOK := ferr.(*ParseError)
	se, seOK := serr.(*ParseError)
	if !feOK || !seOK {
		t.Fatalf("want ParseErrors, got %v / %v", ferr, serr)
	}
	if fe.Pos != se.Pos {
		t.Fatalf("reject position diverged: table %d, plain %d", fe.Pos, se.Pos)
	}
}

func TestChoiceTableNullableAlternative(t *testing.T) {
	// A nullable alternative matches the empty string, so no byte (and
	// no EOF) may prune it: the whole choice must still accept inputs
	// that fall through to it.
	g := `
option root = S;
public S = Item "." !. ;
Item = $("x"+) / $("y") / $("z"?) ;
`
	for _, opts := range []Options{Optimized(), noScan()} {
		prog := build(t, g, opts)
		for _, in := range []string{"xx.", "y.", "z.", "."} {
			if e := errText(prog, in); e != "" {
				t.Errorf("%s: %q must parse through the nullable alt, got %s", opts, in, e)
			}
		}
		if e := errText(prog, "q."); e == "" {
			t.Errorf("%s: %q must fail", opts, "q.")
		}
	}
}

// TestPrunedChoiceKeepsFarthestFailure is the regression test for
// pruned alternatives vanishing from the farthest-failure record. In
// java.core, Inline folds MethodBody (Block / ";") into the method
// declaration's choice; on the control byte after the parameter list the
// table prunes both alternatives, and before pruned alternatives were
// charged both engines reported the error one byte early, at ')'. The
// naive packrat engine, which tries every alternative, is the oracle.
func TestPrunedChoiceKeepsFarthestFailure(t *testing.T) {
	g, err := grammars.Compose(grammars.JavaCore)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(topts transform.Options, opts Options) *Program {
		tg, _, err := transform.Apply(g, topts)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Compile(tg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	const in = "class A {\n  int method2(int a, int b)\x01 {\n    return a;\n  }\n}\n"
	locate := func(prog *Program) (text.Location, string) {
		t.Helper()
		src := text.NewSource("input", in)
		_, _, err := prog.Parse(src)
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("want a ParseError, got %v", err)
		}
		return src.Location(pe.Pos), pe.Error()
	}
	want, _ := locate(mk(transform.Baseline(), NaivePackrat()))
	if want.Line != 2 || want.Column != 28 {
		t.Fatalf("naive packrat reports %d:%d, want 2:28 (the control byte)", want.Line, want.Column)
	}
	interp, interpErr := locate(mk(transform.Defaults(), Optimized()))
	compiled, compiledErr := locate(mk(transform.Defaults(), CompiledEngine()))
	if interp != want || compiled != want {
		t.Fatalf("optimized reports %d:%d, compiled %d:%d, want %d:%d",
			interp.Line, interp.Column, compiled.Line, compiled.Column, want.Line, want.Column)
	}
	if interpErr != compiledErr {
		t.Fatalf("engines disagree on the error text:\n optimized: %s\n compiled:  %s", interpErr, compiledErr)
	}
	if !strings.Contains(interpErr, "Block") {
		t.Fatalf("error does not name the pruned Block alternative: %s", interpErr)
	}
}

// TestWideChoiceKeepsFarthestFailure covers choices too wide for a
// table mask (more than 64 alternatives), whose per-alternative dispatch
// skips record the skipped alternative's failure directly.
func TestWideChoiceKeepsFarthestFailure(t *testing.T) {
	var alts []string
	for _, c := range "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789#%&" {
		alts = append(alts, fmt.Sprintf("%q", string(c)+"!"))
	}
	g := "option root = S;\npublic S = A !. ;\nA = \"(\" (" + strings.Join(alts, " / ") + ") / \")\" ;\n"
	want := 1 // the byte after "(", where every alternative fails
	for _, opts := range []Options{NaivePackrat(), Optimized(), CompiledEngine()} {
		_, _, err := build(t, g, opts).Parse(text.NewSource("input", "(~"))
		pe, ok := err.(*ParseError)
		if !ok {
			t.Fatalf("%s: want a ParseError, got %v", opts, err)
		}
		if int(pe.Pos) != want {
			t.Fatalf("%s: error at %d, want %d: %v", opts, pe.Pos, want, err)
		}
	}
}
