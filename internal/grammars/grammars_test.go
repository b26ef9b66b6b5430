package grammars

import (
	"strings"
	"testing"

	"modpeg/internal/analysis"
	"modpeg/internal/ast"
	"modpeg/internal/core"
	"modpeg/internal/grammartest"
	"modpeg/internal/peg"
	"modpeg/internal/syntax"
	"modpeg/internal/text"
	"modpeg/internal/transform"
	"modpeg/internal/vm"
)

// buildProg composes, transforms, and compiles a bundled grammar.
func buildProg(t *testing.T, top string) *vm.Program {
	t.Helper()
	g, err := Compose(top)
	if err != nil {
		t.Fatalf("compose %s: %v", top, err)
	}
	tg, _, err := transform.Apply(g, transform.Defaults())
	if err != nil {
		t.Fatalf("transform %s: %v", top, err)
	}
	prog, err := vm.Compile(tg, vm.Optimized())
	if err != nil {
		t.Fatalf("compile %s: %v", top, err)
	}
	return prog
}

func parseOK(t *testing.T, prog *vm.Program, input string) ast.Value {
	t.Helper()
	v, _, err := prog.Parse(text.NewSource("input", input))
	if err != nil {
		if pe, ok := err.(*vm.ParseError); ok {
			t.Fatalf("parse failed: %v\n%s", err, pe.Detail())
		}
		t.Fatalf("parse failed: %v", err)
	}
	return v
}

func parseFails(t *testing.T, prog *vm.Program, input string) {
	t.Helper()
	if _, _, err := prog.Parse(text.NewSource("input", input)); err == nil {
		t.Fatalf("parse of %q must fail", input)
	}
}

// TestAllTopModulesCompose is the basic health check: every bundled top
// module composes, passes analysis, transforms, and compiles under every
// engine configuration.
func TestAllTopModulesCompose(t *testing.T) {
	for _, top := range TopModules() {
		t.Run(top, func(t *testing.T) {
			g, err := Compose(top)
			if err != nil {
				t.Fatalf("compose: %v", err)
			}
			if err := analysis.Analyze(g).Check(); err != nil {
				t.Fatalf("check: %v", err)
			}
			tg, _, err := transform.Apply(g, transform.Defaults())
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			if err := analysis.Analyze(tg).CheckTransformed(); err != nil {
				t.Fatalf("post-transform check: %v", err)
			}
			for _, opts := range []vm.Options{vm.Backtracking(), vm.NaivePackrat(), vm.Optimized()} {
				if _, err := vm.Compile(tg, opts); err != nil {
					t.Fatalf("compile %v: %v", opts, err)
				}
			}
			// Baseline transform must also be runnable.
			bg, _, err := transform.Apply(g, transform.Baseline())
			if err != nil {
				t.Fatalf("baseline transform: %v", err)
			}
			if _, err := vm.Compile(bg, vm.NaivePackrat()); err != nil {
				t.Fatalf("baseline compile: %v", err)
			}
		})
	}
}

func TestModuleNamesListsEverything(t *testing.T) {
	names := ModuleNames()
	if len(names) < 20 {
		t.Fatalf("expected at least 20 bundled modules, got %d: %v", len(names), names)
	}
	for _, top := range TopModules() {
		found := false
		for _, n := range names {
			if n == top {
				found = true
			}
		}
		if !found {
			t.Errorf("top module %s missing from ModuleNames", top)
		}
	}
	if _, err := Source("calc.core"); err != nil {
		t.Fatal(err)
	}
	if _, err := Source("no.such.module"); err == nil {
		t.Fatal("unknown module must error")
	}
	if _, err := Resolver().Resolve("no.such.module"); err == nil {
		t.Fatal("unknown module must error via resolver")
	}
	if _, err := Compose("no.such.module"); err == nil {
		t.Fatal("unknown top must error")
	}
}

// TestResolverParsesEachModuleOnce: the resolver hands every composition
// the same parse of a bundled module, and composing every top module (the
// extensions included) leaves each parse equal to a fresh one.
func TestResolverParsesEachModuleOnce(t *testing.T) {
	r := Resolver().(core.ModuleResolver)
	for _, top := range TopModules() {
		if _, err := Compose(top); err != nil {
			t.Fatal(err)
		}
	}
	for name, mods := range grammartest.Extensions {
		if _, err := core.Compose("t", core.MultiResolver{core.MapResolver(mods), Resolver()}); err != nil {
			t.Fatalf("%s extension: %v", name, err)
		}
	}
	for _, name := range ModuleNames() {
		m, src, err := r.ResolveModule(name)
		if err != nil || m == nil || src != nil {
			t.Fatalf("ResolveModule(%q) = %v, %v, %v; want a parsed module", name, m, src, err)
		}
		if again, _, _ := r.ResolveModule(name); again != m {
			t.Errorf("%s parsed twice", name)
		}
		source, err := Source(name)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := syntax.ParseString(name+".mpeg", source)
		if err != nil {
			t.Fatal(err)
		}
		if !peg.EqualModule(m, fresh) {
			t.Errorf("composition modified the shared parse of %s", name)
		}
	}
	if _, _, err := r.ResolveModule("no.such.module"); err == nil {
		t.Fatal("unknown module must error")
	}
}

// ----------------------------------------------------------------- calc

func TestCalcCore(t *testing.T) {
	prog := buildProg(t, CalcCore)
	cases := []struct{ in, want string }{
		{"1+2", `(Add (Num "1") (Num "2"))`},
		{"1+2*3", `(Add (Num "1") (Mul (Num "2") (Num "3")))`},
		{"1-2-3", `(Sub (Sub (Num "1") (Num "2")) (Num "3"))`},
		{"8/4/2", `(Div (Div (Num "8") (Num "4")) (Num "2"))`},
		{"(1+2)*3", `(Mul (Add (Num "1") (Num "2")) (Num "3"))`},
		{"  3.14 # pi\n", `(Num "3.14")`},
	}
	for _, c := range cases {
		if got := ast.Format(parseOK(t, prog, c.in)); got != c.want {
			t.Errorf("%q = %s, want %s", c.in, got, c.want)
		}
	}
	parseFails(t, prog, "1 +")
	parseFails(t, prog, "2 ** 3") // pow is not in core
	parseFails(t, prog, "1 < 2")  // cmp is not in core
}

func TestCalcFullExtensions(t *testing.T) {
	prog := buildProg(t, CalcFull)
	cases := []struct{ in, want string }{
		// calc.pow: right-associative, binds tighter than * via anchor.
		{"2**3", `(Pow (Num "2") (Num "3"))`},
		{"2**3**2", `(Pow (Num "2") (Pow (Num "3") (Num "2")))`},
		{"2**3*4", `(Mul (Pow (Num "2") (Num "3")) (Num "4"))`},
		// calc.cmp: overriding the root added a comparison layer.
		{"1+2 < 2*3", `(Lt (Add (Num "1") (Num "2")) (Mul (Num "2") (Num "3")))`},
		{"4 > 1", `(Gt (Num "4") (Num "1"))`},
		// Base grammar still works.
		{"1+2*3", `(Add (Num "1") (Mul (Num "2") (Num "3")))`},
	}
	for _, c := range cases {
		if got := ast.Format(parseOK(t, prog, c.in)); got != c.want {
			t.Errorf("%q = %s, want %s", c.in, got, c.want)
		}
	}
}

// ----------------------------------------------------------------- json

func TestJSON(t *testing.T) {
	prog := buildProg(t, JSON)
	inputs := []string{
		`null`,
		`true`,
		`false`,
		`42`,
		`-3.25e+10`,
		`"hello \"world\""`,
		`[]`,
		`[1, 2, 3]`,
		`{}`,
		`{"a": 1}`,
		`{"a": {"b": [1, true, null, "x"]}, "c": []}`,
		"\n\t {\"k\" : [ {} , [ ] ] } \n",
	}
	for _, in := range inputs {
		parseOK(t, prog, in)
	}
	for _, bad := range []string{``, `{`, `[1,]`, `{"a" 1}`, `tru`, `"unterminated`, `[1 2]`, `{1: 2}`} {
		parseFails(t, prog, bad)
	}
	v := parseOK(t, prog, `{"a": 1, "b": [true]}`)
	if got := ast.Format(v); !strings.Contains(got, `(Member (Str "\"a\"") (Num "1"))`) {
		t.Fatalf("value = %s", got)
	}
}

func TestJSONRelaxedExtensions(t *testing.T) {
	strict := buildProg(t, JSON)
	relaxed := buildProg(t, JSONRelaxed)
	relaxedInputs := []string{
		"// leading comment\n{\"a\": 1}",
		"{\"a\": 1, /* inline */ \"b\": 2}",
		"[1, 2, 3,]",
		"{\"a\": 1,}",
		"[/* only */ 1]",
		"{\n  // k\n  \"k\": [1,],\n}",
	}
	for _, in := range relaxedInputs {
		parseFails(t, strict, in)
		parseOK(t, relaxed, in)
	}
	// Strict documents still parse under the relaxed grammar.
	for _, in := range []string{`{"a": [1, 2]}`, `[]`, `null`} {
		parseOK(t, relaxed, in)
	}
	// Unterminated comments and double trailing commas still fail.
	parseFails(t, relaxed, "{\"a\": 1} /* never closed")
	parseFails(t, relaxed, "[1,,]")
}

// ----------------------------------------------------------------- java

const javaSample = `
package com.example.demo;

import java.util.List;
import java.io.*;

public class Point extends Base {
    private int x;
    private int y = 0;
    static final int ORIGIN = 0;

    public Point(int x, int y) {
        this.x = x;
        this.y = y;
    }

    public int distSquared(Point other) {
        int dx = x - other.x;
        int dy = y - other.y;
        return dx * dx + dy * dy;
    }

    int loop(int n) {
        int total = 0;
        for (int i = 0; i < n; i++) {
            if (i % 2 == 0) {
                total += i;
            } else {
                total -= i;
            }
        }
        while (total > 100) {
            total = total / 2;
        }
        do {
            total++;
        } while (total < 0);
        return total;
    }

    int classify(int kind) {
        int[] weights = {1, 2, 3,};
        switch (kind % 3) {
        case 0:
            return weights[0];
        case 1:
            break;
        default:
            kind = super.hashCode();
        }
        outer:
        for (int i = 0; i < 3; i++) {
            while (true) {
                if (i > 1) {
                    break outer;
                }
                continue outer;
            }
        }
        return kind;
    }

    String describe() {
        char c = 'x';
        float f = 2.5f;
        boolean flag = true && !false || 1 < 2;
        int[] xs = new int[10];
        xs[0] = (int) f;
        Object o = new Object();
        String s = "hi\n";
        if (o instanceof String) {
            return s + c;
        }
        try {
            int q = xs[1] << 2 & 0xFF | 7 ^ 3;
            q = flag ? q : -q;
        } catch (Exception e) {
            throw e;
        } finally {
            s = null;
        }
        return s;
    }
}
`

func TestJavaCore(t *testing.T) {
	prog := buildProg(t, JavaCore)
	v := parseOK(t, prog, javaSample)
	unit, ok := v.(*ast.Node)
	if !ok || unit.Name != "Unit" {
		t.Fatalf("root = %s", ast.Format(v))
	}
	if cls := ast.Find(v, "Class"); cls == nil {
		t.Fatal("no Class node")
	}
	methods := ast.FindAll(v, "Method")
	if len(methods) != 4 {
		t.Fatalf("methods = %d", len(methods))
	}
	for _, name := range []string{"Switch", "Case", "Default", "Label", "Super", "ArrayInit"} {
		if ast.Find(v, name) == nil {
			t.Errorf("missing %s node", name)
		}
	}
	if ctor := ast.FindAll(v, "Ctor"); len(ctor) != 1 {
		t.Fatalf("ctors = %d", len(ctor))
	}
	if fields := ast.FindAll(v, "FieldDecl"); len(fields) != 3 {
		t.Fatalf("fields = %d", len(fields))
	}
	// Interfaces and implements clauses.
	v = parseOK(t, prog, `
interface Shape extends Base {
    int area();
}
class Circle extends Object implements Shape, Comparable {
    int area() { return 3; }
}
`)
	if ast.Find(v, "Interface") == nil || ast.Find(v, "Implements") == nil {
		t.Fatal("missing Interface/Implements nodes")
	}
	// assert/foreach/pow are extensions and must NOT parse in core.
	parseFails(t, prog, "class A { void m() { assert 1 == 1; } }")
	parseFails(t, prog, "class A { void m(int[] xs) { for (int x : xs) { } } }")
	parseFails(t, prog, "class A { int m() { return 2 ** 3; } }")
}

func TestJavaFullExtensions(t *testing.T) {
	prog := buildProg(t, JavaFull)
	// Base programs still parse.
	parseOK(t, prog, javaSample)
	// assert statement.
	v := parseOK(t, prog, "class A { void m() { assert x == 1 : \"boom\"; } }")
	if ast.Find(v, "Assert") == nil {
		t.Fatalf("no Assert node in %s", ast.Format(v))
	}
	// enhanced for.
	v = parseOK(t, prog, "class A { void m(int[] xs) { for (int x : xs) { use(x); } } }")
	if ast.Find(v, "ForEach") == nil {
		t.Fatal("no ForEach node")
	}
	// classic for still works.
	v = parseOK(t, prog, "class A { void m() { for (i = 0; i < 3; i++) { } } }")
	if ast.Find(v, "For") == nil {
		t.Fatal("no For node")
	}
	// pow operator, right associative, tighter than *.
	v = parseOK(t, prog, "class A { int m() { return 2 ** 3 ** 2 * 4; } }")
	pow := ast.Find(v, "Pow")
	if pow == nil {
		t.Fatal("no Pow node")
	}
	if inner := ast.Find(pow.Child(1), "Pow"); inner == nil {
		t.Fatalf("pow must be right associative: %s", ast.Format(pow))
	}
	if ast.Find(v, "Mul") == nil {
		t.Fatal("no Mul node around pow")
	}
}

func TestJavaSQLComposition(t *testing.T) {
	prog := buildProg(t, JavaSQL)
	src := "class A { void m() { rs = `SELECT name, age FROM users WHERE age >= 18 AND name <> 'x'`; } }"
	v := parseOK(t, prog, src)
	sel := ast.Find(v, "Select")
	if sel == nil {
		t.Fatalf("no Select node in %s", ast.Format(v))
	}
	if cols := ast.FindAll(sel, "Name"); len(cols) < 3 {
		t.Fatalf("column/table names = %d", len(cols))
	}
	if ast.Find(v, "SqlAnd") == nil {
		t.Fatal("no SqlAnd node")
	}
	// The star form too.
	v = parseOK(t, prog, "class A { void m() { x = `SELECT * FROM t`; } }")
	if ast.Find(v, "AllColumns") == nil {
		t.Fatal("no AllColumns node")
	}
	// Plain Java still parses.
	parseOK(t, prog, javaSample)
}

// -------------------------------------------------------------------- c

const cSample = `
// A small C program exercising the subset.
#include <stdio.h>

typedef unsigned long size_t;

struct Point {
    int x;
    int y;
    char name[16];
};

static int counter = 0;

int add(int a, int b) {
    return a + b;
}

static void process(struct Point *p, int n) {
    int i;
    for (i = 0; i < n; i++) {
        p->x += i;
        p->y = p->x * 2;
        (*p).name[0] = 'a';
    }
    switch (n % 3) {
    case 0:
        counter++;
        break;
    case 1:
        goto done;
    default:
        counter = ~counter & 0xFF;
        break;
    }
done:
    return;
}

int main(void) {
    struct Point pt;
    int values[4];
    int *ptr = &counter;
    unsigned int u = 42u;
    double d = 1.5;
    values[0] = add(1, 2);
    if (values[0] >= 3 && *ptr != 0 || d < 2.0) {
        process(&pt, sizeof(struct Point));
    } else {
        do {
            u = u >> 1 | 1u << 3;
        } while (u > 0);
    }
    return (int)d;
}
`

func TestCCore(t *testing.T) {
	prog := buildProg(t, CCore)
	v := parseOK(t, prog, cSample)
	if fns := ast.FindAll(v, "Function"); len(fns) != 3 {
		t.Fatalf("functions = %d", len(fns))
	}
	if ast.Find(v, "Struct") == nil || ast.Find(v, "Typedef") == nil {
		t.Fatal("missing struct/typedef")
	}
	if ast.Find(v, "Arrow") == nil || ast.Find(v, "Deref") == nil {
		t.Fatal("missing pointer operations")
	}
	if ast.Find(v, "Switch") == nil || ast.Find(v, "Goto") == nil || ast.Find(v, "Label") == nil {
		t.Fatal("missing switch/goto/label")
	}
	parseFails(t, prog, "int f( { }")
	parseFails(t, prog, "class A {}") // Java, not C
}

func TestCFullStatementExpressions(t *testing.T) {
	base := buildProg(t, CCore)
	full := buildProg(t, CFull)
	src := `
int f(int a) {
    int x = ({ int t = a * 2; t + 1; });
    return x + ({ 0; });
}
`
	parseFails(t, base, src)
	v := parseOK(t, full, src)
	if got := len(ast.FindAll(v, "StmtExpr")); got != 2 {
		t.Fatalf("StmtExpr nodes = %d", got)
	}
	// Plain C still parses under the composed grammar.
	parseOK(t, full, cSample)
}

// ------------------------------------------------------- cross-engine

func TestBundledGrammarsEngineEquivalence(t *testing.T) {
	cases := []struct {
		top   string
		input string
	}{
		{CalcFull, "1+2**3 < 4*5"},
		{JSON, `{"a": [1, {"b": null}], "c": "s"}`},
		{JavaFull, "class A { int f() { assert 1 < 2; return 2 ** 8; } }"},
		{CCore, "int main(void) { return 1 + 2 * 3; }"},
	}
	for _, c := range cases {
		g, err := Compose(c.top)
		if err != nil {
			t.Fatal(err)
		}
		tg, _, err := transform.Apply(g, transform.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		var ref ast.Value
		for i, opts := range []vm.Options{vm.Backtracking(), vm.NaivePackrat(), vm.Optimized()} {
			prog, err := vm.Compile(tg, opts)
			if err != nil {
				t.Fatal(err)
			}
			v, _, err := prog.Parse(text.NewSource("in", c.input))
			if err != nil {
				t.Fatalf("%s %v: %v", c.top, opts, err)
			}
			if i == 0 {
				ref = v
			} else if !ast.Equal(ref, v) {
				t.Fatalf("%s: engine %v disagrees:\n%s\nvs\n%s",
					c.top, opts, ast.Format(v), ast.Format(ref))
			}
		}
	}
}
