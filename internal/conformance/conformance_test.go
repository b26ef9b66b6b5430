// Package conformance holds the cross-engine differential harness: every
// bundled grammar, fed every corpus the workload package can generate for
// it (plus deliberately broken variants), through all four execution
// strategies — plain backtracking is covered elsewhere; here the lanes
// are the naive packrat baseline, the memoize-everything chunked engine,
// the optimized engine (plus its scan-fusion-off variant), the
// closure-compiled engine, and the generated standalone Go parser. All
// lanes must agree on accept/reject and produce structurally identical
// values; lanes sharing a transform pipeline must report byte-identical
// errors.
package conformance

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/codegen"
	"modpeg/internal/grammars"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

// corpusCase is one input for one grammar. mustParse marks the generated
// corpora, which the reference engine is required to accept; the damaged
// variants carry no expectation (a splice can land inside a string
// literal, a truncation on an expression boundary) — for those the
// harness checks only that every lane agrees.
type corpusCase struct {
	name      string
	input     string
	mustParse bool
}

// corporaFor returns the differential corpus for a top module: generated
// valid inputs at two sizes plus damaged variants (a control-byte splice
// and a truncation) and the empty input.
func corporaFor(top string) []corpusCase {
	gen := map[string]func(workload.Config) string{
		grammars.CalcCore:    workload.Expression,
		grammars.CalcFull:    workload.ExpressionExt,
		grammars.JSON:        workload.JSONDoc,
		grammars.JSONRelaxed: workload.JSONDoc,
		grammars.JavaCore:    workload.JavaProgram,
		grammars.JavaFull:    workload.JavaProgramExt,
		grammars.JavaSQL:     workload.JavaSQLProgram,
		grammars.CCore:       workload.CProgram,
		grammars.CFull:       workload.CProgram,
		grammars.SQL:         workload.SQLQuery,
	}[top]
	var cases []corpusCase
	for _, size := range []int{300, 4000} {
		src := gen(workload.Config{Seed: int64(size), Size: size})
		cases = append(cases, corpusCase{fmt.Sprintf("gen%d", size), src, true})
		mid := len(src) / 2
		cases = append(cases,
			corpusCase{fmt.Sprintf("splice%d", size), src[:mid] + "\x01" + src[mid:], false},
			corpusCase{fmt.Sprintf("trunc%d", size), strings.TrimRight(src[:mid], " \t\n"), false},
		)
	}
	cases = append(cases, corpusCase{"empty", "", false})
	return cases
}

type lane struct {
	name string
	prog *vm.Program
	// strictErr: the lane shares the default transform pipeline (and
	// dispatch tables) with the optimized reference, so its error text
	// must be byte-identical, not merely accept/reject-equal.
	strictErr bool
}

func lanesFor(t *testing.T, top string) []lane {
	t.Helper()
	g, err := grammars.Compose(top)
	if err != nil {
		t.Fatalf("compose %s: %v", top, err)
	}
	mk := func(topts transform.Options, eopts vm.Options) *vm.Program {
		tg, _, err := transform.Apply(g, topts)
		if err != nil {
			t.Fatalf("%s: transform: %v", top, err)
		}
		prog, err := vm.Compile(tg, eopts)
		if err != nil {
			t.Fatalf("%s: compile: %v", top, err)
		}
		return prog
	}
	noscan := vm.Optimized()
	noscan.ScanFusion = false
	return []lane{
		{"naive", mk(transform.Baseline(), vm.NaivePackrat()), false},
		{"full-packrat", mk(transform.Defaults(),
			vm.Options{Memoize: true, MemoEverything: true, ChunkedMemo: true, Dispatch: true}), true},
		{"optimized", mk(transform.Defaults(), vm.Optimized()), true},
		{"optimized-noscan", mk(transform.Defaults(), noscan), true},
		// The closure-compiled engine shares the default pipeline and
		// the interpreter's failure-recording edges, so its diagnostics
		// are held to byte-identical error text, not just accept/reject.
		{"compiled", mk(transform.Defaults(), vm.CompiledEngine()), true},
	}
}

func errStr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestInterpretedEnginesAgree runs the interpreted lanes over every
// grammar's corpus. The optimized engine is the reference: every lane
// must match its accept/reject decision and its value; the lanes
// compiled through the default transform pipeline (full-packrat,
// scan-fusion-disabled) must also report byte-identical errors (the
// naive lane uses the baseline pipeline, whose diagnostics legitimately
// name different productions).
func TestInterpretedEnginesAgree(t *testing.T) {
	for _, top := range grammars.TopModules() {
		top := top
		t.Run(top, func(t *testing.T) {
			t.Parallel()
			lanes := lanesFor(t, top)
			ref := lanes[2]
			if ref.name != "optimized" {
				t.Fatalf("lanes[2] = %q, want the optimized reference", ref.name)
			}
			for _, c := range corporaFor(top) {
				src := text.NewSource(c.name, c.input)
				refV, _, refErr := ref.prog.Parse(src)
				if c.mustParse && refErr != nil {
					t.Fatalf("%s/%s: generated corpus must parse, got %v", top, c.name, refErr)
				}
				for _, l := range lanes {
					if l.name == ref.name {
						continue
					}
					v, _, err := l.prog.Parse(src)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s/%s: %s accept=%v vs optimized accept=%v\n %s: %v\n optimized: %v",
							top, c.name, l.name, err == nil, refErr == nil, l.name, err, refErr)
					}
					if err == nil && !ast.Equal(v, refV) {
						t.Fatalf("%s/%s: %s value differs from optimized", top, c.name, l.name)
					}
					if l.strictErr && errStr(err) != errStr(refErr) {
						t.Fatalf("%s/%s: error text differs\n full-packrat: %v\n optimized:    %v",
							top, c.name, err, refErr)
					}
				}
			}
		})
	}
}

// TestErrorOffsetsMatchNaive holds every lane's farthest-failure offset
// to the naive packrat lane's. Memoization and first-set dispatch may
// skip work but never a failure the plain evaluation would record, so a
// control byte spliced at any offset of a small generated corpus must be
// reported at the same byte by every engine, whatever the expectation
// text (which names different productions under the baseline pipeline).
func TestErrorOffsetsMatchNaive(t *testing.T) {
	for _, top := range grammars.TopModules() {
		top := top
		t.Run(top, func(t *testing.T) {
			t.Parallel()
			lanes := lanesFor(t, top)
			if lanes[0].name != "naive" {
				t.Fatalf("lanes[0] = %q, want the naive reference", lanes[0].name)
			}
			src := corporaFor(top)[0].input
			for at := 0; at <= len(src); at++ {
				name := fmt.Sprintf("splice300@%d", at)
				in := text.NewSource(name, src[:at]+"\x01"+src[at:])
				_, _, refErr := lanes[0].prog.Parse(in)
				for _, l := range lanes[1:] {
					_, _, err := l.prog.Parse(in)
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s/%s: %s accept=%v vs naive accept=%v", top, name, l.name, err == nil, refErr == nil)
					}
					if err == nil {
						continue
					}
					got, want := errPos(t, err), errPos(t, refErr)
					if got != want {
						t.Fatalf("%s/%s: %s reports offset %d, naive %d\n %s: %v\n naive: %v",
							top, name, l.name, got, want, l.name, err, refErr)
					}
				}
			}
		})
	}
}

// errPos returns the offset of a syntax error.
func errPos(t *testing.T, err error) text.Pos {
	t.Helper()
	pe, ok := err.(*vm.ParseError)
	if !ok {
		t.Fatalf("error %v is %T, not a syntax error", err, err)
	}
	return pe.Pos
}

// TestGeneratedParsersAgree covers the fourth lane: a standalone Go
// parser is generated for every bundled grammar, all of them are compiled
// into one throwaway module with a manifest-driven driver, and a single
// `go run` parses every corpus case. The driver reports accept/reject and
// the value's s-expression rendering, which must equal ast.Format of the
// optimized interpreter's value.
func TestGeneratedParsersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a generated module; skipped in -short")
	}
	tops := grammars.TopModules()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module conformance\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// One subpackage per grammar plus a driver that walks the manifest.
	var imports, table strings.Builder
	for i, top := range tops {
		g, err := grammars.Compose(top)
		if err != nil {
			t.Fatalf("compose %s: %v", top, err)
		}
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			t.Fatalf("%s: transform: %v", top, err)
		}
		pkg := fmt.Sprintf("p%d", i)
		src, err := codegen.Generate(tg, codegen.Options{Package: pkg, EntryComment: "grammar: " + top})
		if err != nil {
			t.Fatalf("%s: generate: %v", top, err)
		}
		if err := os.MkdirAll(filepath.Join(dir, pkg), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, pkg, pkg+".go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&imports, "\t%q\n", "conformance/"+pkg)
		fmt.Fprintf(&table, "\tfunc(in string) (string, bool) { v, err := %s.Parse(in); if err != nil { return \"\", false }; return %s.Format(v), true },\n", pkg, pkg)
	}
	driver := `package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"

` + imports.String() + `)

var parsers = []func(string) (string, bool){
` + table.String() + `}

// Manifest lines: <parserIndex>\t<inputFile>\t<outputFile>. The output
// file gets "OK\n<format>" or "ERR".
func main() {
	f, err := os.Open(os.Args[1])
	if err != nil {
		panic(err)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 3)
		idx, _ := strconv.Atoi(parts[0])
		in, err := os.ReadFile(parts[1])
		if err != nil {
			panic(err)
		}
		out := "ERR"
		if s, ok := parsers[idx](string(in)); ok {
			out = "OK\n" + s
		}
		if err := os.WriteFile(parts[2], []byte(out), 0o644); err != nil {
			panic(err)
		}
	}
	fmt.Println("done")
}
`
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(driver), 0o644); err != nil {
		t.Fatal(err)
	}

	// Manifest + expected results from the optimized interpreter.
	type expect struct {
		top, name, out string // out is "" for reject, else the format string
		accept         bool
	}
	var manifest strings.Builder
	var expects []expect
	caseNo := 0
	for i, top := range tops {
		g, err := grammars.Compose(top)
		if err != nil {
			t.Fatal(err)
		}
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		prog, err := vm.Compile(tg, vm.Optimized())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corporaFor(top) {
			inPath := filepath.Join(dir, fmt.Sprintf("in%d.txt", caseNo))
			outPath := filepath.Join(dir, fmt.Sprintf("out%d.txt", caseNo))
			if err := os.WriteFile(inPath, []byte(c.input), 0o644); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&manifest, "%d\t%s\t%s\n", i, inPath, outPath)
			v, _, err := prog.Parse(text.NewSource(c.name, c.input))
			e := expect{top: top, name: c.name, accept: err == nil}
			if err == nil {
				e.out = ast.Format(v)
			}
			expects = append(expects, e)
			caseNo++
		}
	}
	manifestPath := filepath.Join(dir, "manifest.tsv")
	if err := os.WriteFile(manifestPath, []byte(manifest.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "run", ".", manifestPath)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=-mod=mod")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s", err, out)
	}

	for i, e := range expects {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("out%d.txt", i)))
		if err != nil {
			t.Fatalf("%s/%s: driver wrote no result: %v", e.top, e.name, err)
		}
		s := string(got)
		if e.accept != strings.HasPrefix(s, "OK\n") {
			t.Errorf("%s/%s: generated accept=%v, interpreter accept=%v",
				e.top, e.name, strings.HasPrefix(s, "OK\n"), e.accept)
			continue
		}
		if e.accept && strings.TrimPrefix(s, "OK\n") != e.out {
			t.Errorf("%s/%s: generated value differs from interpreter\n gen: %.200s\n vm:  %.200s",
				e.top, e.name, strings.TrimPrefix(s, "OK\n"), e.out)
		}
	}
}
