package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// fuzzLeftRecGrammar exercises the compiled engine's left-recursion
// lowering (seed/suffix closures, suffix first-byte pre-checks) and its
// dispatch-table choices — the paths the right-recursive calcGrammar
// never reaches.
const fuzzLeftRecGrammar = `
option root = Program;
public Program = Spacing e:Expr !. ;
Expr =
    l:Expr "+" Spacing r:Term @Add
  / l:Expr "-" Spacing r:Term @Sub
  / Term
  ;
Term =
    l:Term "*" Spacing r:Atom @Mul
  / Atom
  ;
Atom = Number / Name / "(" Spacing Expr ")" Spacing ;
Number = v:$([0-9]+) Spacing @Num ;
Name = v:$([a-z][a-z0-9]*) Spacing @Name ;
void Spacing = [ \t\n\r]* ;
`

// FuzzCompiledParse is the differential fuzz target for the
// closure-compiled engine, with the optimized interpreter as oracle.
// For every input the two engines must agree exactly on the ungoverned
// parse: accept/reject, the semantic value, the typed error kind, the
// error location, and the full error text (both engines run the same
// transform pipeline and record failures on the same edges). A governed
// compiled parse must additionally uphold the budget invariants: no
// engine panic escapes, the memo footprint respects the budget, and a
// successful governed parse returns the oracle's value — limits may
// stop a parse, never change its answer.
func FuzzCompiledParse(f *testing.F) {
	type pair struct{ opt, comp *Program }
	var pairs []pair
	for _, body := range []string{calcGrammar, fuzzLeftRecGrammar} {
		opt, err := fuzzProgram(body, Optimized())
		if err != nil {
			f.Fatal(err)
		}
		comp, err := fuzzProgram(body, CompiledEngine())
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{opt, comp})
	}
	f.Add("1 + 2*(3-4)", uint8(0), uint32(0), uint16(0), false)
	f.Add("((((1))))", uint8(1), uint32(100), uint16(3), true)
	f.Add("a*b+c*(d-12)", uint8(1), uint32(0), uint16(0), false)
	f.Add("1+2*", uint8(0), uint32(64), uint16(0), false)
	f.Add("9**9", uint8(1), uint32(1), uint16(1), true)
	f.Fuzz(func(t *testing.T, input string, which uint8, maxMemo uint32, maxDepth uint16, strict bool) {
		if len(input) > 1<<16 {
			t.Skip("bound per-exec work: engine equivalence is input-shape, not input-size")
		}
		p := pairs[int(which)%len(pairs)]
		src := text.NewSource("fuzz", input)

		// Ungoverned differential check: exact equivalence.
		wantV, _, wantErr := p.opt.Parse(src)
		gotV, _, gotErr := p.comp.Parse(src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept disagrees\ninput: %q\ncompiled: %v\noptimized: %v", input, gotErr, wantErr)
		}
		if gotErr != nil {
			var gotPE, wantPE *ParseError
			if !errors.As(gotErr, &gotPE) || !errors.As(wantErr, &wantPE) {
				t.Fatalf("ungoverned rejection must be a *ParseError on both engines\ncompiled: %T\noptimized: %T", gotErr, wantErr)
			}
			if gotPE.Pos != wantPE.Pos {
				t.Fatalf("error location disagrees: compiled %d vs optimized %d\ninput: %q", gotPE.Pos, wantPE.Pos, input)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text disagrees\ninput: %q\ncompiled:  %v\noptimized: %v", input, gotErr, wantErr)
			}
		} else if !ast.Equal(gotV, wantV) {
			t.Fatalf("value disagrees\ninput: %q\ncompiled:  %s\noptimized: %s", input, ast.Format(gotV), ast.Format(wantV))
		}

		// Governed compiled parse: budget invariants only — engines may
		// count depth differently at inlined frames, so the exact limit
		// kind is not compared, but budgets must never change an answer.
		lim := Limits{
			MaxMemoBytes:     int(maxMemo),
			MaxCallDepth:     int(maxDepth),
			MaxParseDuration: 50 * time.Millisecond,
			Strict:           strict,
		}
		gv, gstats, gerr := p.comp.ParseRequest(context.Background(), src, Request{Limits: lim})
		if gerr != nil {
			var ee *EngineError
			if errors.As(gerr, &ee) {
				t.Fatalf("fuzzer reached a compiled-engine panic: %v\n%s", ee, ee.Stack)
			}
			var pe *ParseError
			if errors.As(gerr, &pe) && wantErr != nil && gerr.Error() != wantErr.Error() {
				t.Fatalf("governed compiled syntax error drifted from oracle\ninput: %q\ngoverned:  %v\noracle:    %v", input, gerr, wantErr)
			}
			return
		}
		if lim.MaxMemoBytes > 0 && gstats.MemoBytes > lim.MaxMemoBytes {
			t.Fatalf("compiled memo footprint %d exceeds budget %d", gstats.MemoBytes, lim.MaxMemoBytes)
		}
		if wantErr != nil {
			t.Fatalf("governed compiled parse accepted what the oracle rejects: %v", wantErr)
		}
		if !ast.Equal(gv, wantV) {
			t.Fatalf("governed compiled value drifted\ninput: %q\nlimits: %+v", input, lim)
		}
	})
}
