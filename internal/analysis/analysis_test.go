package analysis

import (
	"strings"
	"testing"
	"testing/quick"

	"modpeg/internal/core"
	"modpeg/internal/peg"
)

// grammarOf composes a single-module grammar from source for testing.
func grammarOf(t *testing.T, body string) *peg.Grammar {
	t.Helper()
	g, err := core.Compose("m", core.MapResolver{"m": "module m;\n" + body})
	if err != nil {
		t.Fatalf("compose: %v", err)
	}
	return g
}

func TestNullable(t *testing.T) {
	g := grammarOf(t, `
public S = A B ;
A = "a"? ;
B = "b" ;
C = A A ;
D = &B ;
E = !B ;
F = B* ;
G = B+ ;
H = $(A) ;
I = () ;
J = B ;
`)
	a := Analyze(g)
	want := map[string]bool{
		"m.S": false, // A? then B: B consumes
		"m.A": true,
		"m.B": false,
		"m.C": true,
		"m.D": true,
		"m.E": true,
		"m.F": true,
		"m.G": false,
		"m.H": true,
		"m.I": true,
		"m.J": false,
	}
	for name, w := range want {
		if a.Nullable[name] != w {
			t.Errorf("Nullable[%s] = %v, want %v", name, a.Nullable[name], w)
		}
	}
}

func TestNullableMutualRecursion(t *testing.T) {
	// S -> A, A -> S "x" / eps: A nullable, S nullable through A.
	g := grammarOf(t, `
public S = A ;
A = "x" A / ;
`)
	a := Analyze(g)
	if !a.Nullable["m.S"] || !a.Nullable["m.A"] {
		t.Fatalf("nullable = %v", a.Nullable)
	}
}

func TestReachableAndRefCount(t *testing.T) {
	g := grammarOf(t, `
public S = A A ;
A = "a" ;
Dead = "d" DeadHelper ;
DeadHelper = "h" ;
`)
	a := Analyze(g)
	if !a.Reachable["m.S"] || !a.Reachable["m.A"] {
		t.Fatal("S and A must be reachable")
	}
	if a.Reachable["m.Dead"] || a.Reachable["m.DeadHelper"] {
		t.Fatal("Dead must be unreachable")
	}
	if a.RefCount["m.A"] != 2 {
		t.Fatalf("RefCount[A] = %d", a.RefCount["m.A"])
	}
	if a.RefCount["m.S"] != 1 { // implicit root reference
		t.Fatalf("RefCount[S] = %d", a.RefCount["m.S"])
	}
	if a.RefCount["m.DeadHelper"] != 0 {
		t.Fatal("references from unreachable productions must not count")
	}
}

func TestRecursionKinds(t *testing.T) {
	g := grammarOf(t, `
public S = Expr ;
Expr = Expr "+" Term / Term ;
Term = "(" Expr ")" / [0-9] ;
Right = "x" Right / "x" ;
Hidden = Opt Hidden "z" / "y" ;
Opt = "o"? ;
NotRec = [0-9] ;
`)
	a := Analyze(g)
	if !a.Recursive["m.Expr"] || !a.Recursive["m.Term"] || !a.Recursive["m.Right"] {
		t.Fatal("recursion flags missing")
	}
	if a.Recursive["m.NotRec"] || a.Recursive["m.S"] {
		t.Fatal("spurious recursion flags")
	}
	if !a.LeftRecursive["m.Expr"] {
		t.Fatal("Expr is left recursive")
	}
	if a.LeftRecursive["m.Term"] || a.LeftRecursive["m.Right"] {
		t.Fatal("Term/Right are not left recursive")
	}
	// Hidden: Opt is nullable, so Hidden can reach itself at the left edge.
	if !a.LeftRecursive["m.Hidden"] {
		t.Fatal("Hidden left recursion through nullable prefix missed")
	}
	if !a.DirectLeftRec["m.Expr"] {
		t.Fatal("Expr has the direct pattern")
	}
	if a.DirectLeftRec["m.Hidden"] {
		t.Fatal("Hidden is not directly rewritable")
	}
}

func TestIndirectLeftRecursionDetected(t *testing.T) {
	g := grammarOf(t, `
public S = A ;
A = B "x" / "a" ;
B = A "y" / "b" ;
`)
	a := Analyze(g)
	if !a.LeftRecursive["m.A"] || !a.LeftRecursive["m.B"] {
		t.Fatal("indirect left recursion missed")
	}
	err := a.Check()
	if err == nil || !strings.Contains(err.Error(), "not in the directly transformable form") {
		t.Fatalf("Check = %v", err)
	}
}

func TestCheckAcceptsCleanGrammar(t *testing.T) {
	g := grammarOf(t, `
public S = A* "end" ;
A = [a-z]+ ;
`)
	if err := Analyze(g).Check(); err != nil {
		t.Fatalf("Check = %v", err)
	}
	if err := Analyze(g).CheckTransformed(); err != nil {
		t.Fatalf("CheckTransformed = %v", err)
	}
}

func TestCheckNullableRepetition(t *testing.T) {
	g := grammarOf(t, `
public S = A* "x" ;
A = "a"? ;
`)
	err := Analyze(g).Check()
	if err == nil || !strings.Contains(err.Error(), "would loop forever") {
		t.Fatalf("Check = %v", err)
	}
}

func TestCheckDirectLeftRecursionPassesCheckButNotTransformed(t *testing.T) {
	g := grammarOf(t, `
public S = S "+" [0-9] / [0-9] ;
`)
	a := Analyze(g)
	if err := a.Check(); err != nil {
		t.Fatalf("direct left recursion must pass Check (transformable): %v", err)
	}
	err := a.CheckTransformed()
	if err == nil || !strings.Contains(err.Error(), "survived transformation") {
		t.Fatalf("CheckTransformed = %v", err)
	}
}

func TestCheckMissingRoot(t *testing.T) {
	g := &peg.Grammar{Prods: map[string]*peg.Production{}}
	err := Analyze(g).Check()
	if err == nil || !strings.Contains(err.Error(), "no root") {
		t.Fatalf("Check = %v", err)
	}
	g2 := &peg.Grammar{Root: "Gone", Prods: map[string]*peg.Production{}}
	err = Analyze(g2).Check()
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("Check = %v", err)
	}
}

func TestCheckUndefinedReference(t *testing.T) {
	g := &peg.Grammar{Root: "S", Prods: map[string]*peg.Production{}}
	g.Add(peg.DefineProd("S", peg.AttrPublic, peg.Alt(peg.SeqOf(peg.Ref("Nope")))))
	err := Analyze(g).Check()
	if err == nil || !strings.Contains(err.Error(), "undefined reference") {
		t.Fatalf("Check = %v", err)
	}
}

func TestFirstSets(t *testing.T) {
	g := grammarOf(t, `
public S = Num / Ident / Paren ;
Num = [0-9]+ ;
Ident = [a-z] [a-z0-9]* ;
Paren = "(" S ")" ;
`)
	a := Analyze(g)
	s := a.First["m.S"]
	for _, b := range []byte{'0', '9', 'a', 'z', '('} {
		if !s.Has(b) {
			t.Errorf("First[S] missing %q", b)
		}
	}
	for _, b := range []byte{'A', ' ', ')'} {
		if s.Has(b) {
			t.Errorf("First[S] must not contain %q", b)
		}
	}
	if !a.FirstPrecise["m.S"] {
		t.Fatal("First[S] should be precise")
	}
	num := a.First["m.Num"]
	if num.Len() != 10 {
		t.Fatalf("First[Num] = %s", num)
	}
}

func TestFirstSetsWithPredicatesImprecise(t *testing.T) {
	g := grammarOf(t, `
public S = !"if" Ident / Key ;
Ident = [a-z]+ ;
Key = "if" ;
`)
	a := Analyze(g)
	if a.FirstPrecise["m.S"] {
		t.Fatal("predicate on the left edge must be imprecise")
	}
	if a.FirstPrecise["m.Ident"] != true {
		t.Fatal("Ident is precise")
	}
}

func TestFirstSetNullablePrefixUnionsFollow(t *testing.T) {
	g := grammarOf(t, `
public S = A "z" ;
A = "a"? ;
`)
	a := Analyze(g)
	s := a.First["m.S"]
	if !s.Has('a') || !s.Has('z') {
		t.Fatalf("First[S] = %s", s)
	}
}

func TestFirstSetNegatedClassAndAny(t *testing.T) {
	g := grammarOf(t, `
public S = [^a] / "b" ;
T = . ;
`)
	a := Analyze(g)
	s := a.First["m.S"]
	if s.Has('a') != true { // 'b' is in [^a] complement? 'a' excluded by class but "b" alt adds 'b'; 'a' not in any alt
		// [^a] includes every byte except 'a'; so First[S] = all bytes except 'a', plus 'b'.
		t.Log("checking negated class semantics")
	}
	if s.Has('a') {
		t.Fatal("'a' must not start S")
	}
	if !s.Has(0) || !s.Has(255) || !s.Has('b') {
		t.Fatalf("First[S] = %s", s)
	}
	at := a.First["m.T"]
	if at.Len() != 256 {
		t.Fatalf("First[.] = %d bytes", at.Len())
	}
}

func TestCosts(t *testing.T) {
	g := grammarOf(t, `
public S = "abc" ;
T = A B ;
A = "a" ;
B = "b" ;
`)
	a := Analyze(g)
	if a.Cost["m.S"] != 3*costByte {
		t.Fatalf("Cost[S] = %d", a.Cost["m.S"])
	}
	if a.Cost["m.T"] != 2*costCall {
		t.Fatalf("Cost[T] = %d", a.Cost["m.T"])
	}
	if ExprCost(nil) != 0 || ExprCost(peg.Eps()) != 0 {
		t.Fatal("trivial costs")
	}
	if ExprCost(peg.Text(peg.Lit("ab"))) != costCapture+2 {
		t.Fatal("capture cost")
	}
	if ExprCost(peg.Ahead(peg.Lit("a"))) != costPred+1 || ExprCost(peg.Never(peg.Lit("a"))) != costPred+1 {
		t.Fatal("predicate cost")
	}
	if ExprCost(peg.Star(peg.Lit("a"))) != costRepeat+1 {
		t.Fatal("repeat cost")
	}
	if ExprCost(peg.Opt(peg.Lit("a"))) != 2 {
		t.Fatal("optional cost")
	}
}

func TestByteSetOps(t *testing.T) {
	var s ByteSet
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("zero set")
	}
	s.Add('a')
	s.AddRange('0', '9')
	if !s.Has('a') || !s.Has('5') || s.Has('b') {
		t.Fatal("membership")
	}
	if s.Len() != 11 {
		t.Fatalf("Len = %d", s.Len())
	}
	var o ByteSet
	o.Add('b')
	if s.Intersects(&o) {
		t.Fatal("disjoint")
	}
	o.Add('a')
	if !s.Intersects(&o) {
		t.Fatal("intersecting")
	}
	c := s.Clone()
	c.Add('z')
	if s.Has('z') {
		t.Fatal("clone aliases")
	}
	s.Union(&o)
	if !s.Has('b') {
		t.Fatal("union")
	}
	s.Invert()
	if s.Has('a') || !s.Has('c') {
		t.Fatal("invert")
	}
	var all ByteSet
	all.AddAll()
	if all.Len() != 256 {
		t.Fatal("AddAll")
	}
}

func TestByteSetString(t *testing.T) {
	var s ByteSet
	s.AddRange('a', 'c')
	s.Add(0x00)
	s.Add(' ')
	got := s.String()
	if !strings.Contains(got, "a-c") || !strings.Contains(got, "00") || !strings.Contains(got, "20") {
		t.Fatalf("String = %q", got)
	}
	var e ByteSet
	if e.String() != "{}" {
		t.Fatalf("empty String = %q", e.String())
	}
}

func TestByteSetProperties(t *testing.T) {
	// Union is monotone in Len; inversion is an involution.
	f := func(bs []byte, cs []byte) bool {
		var x, y ByteSet
		for _, b := range bs {
			x.Add(b)
		}
		for _, c := range cs {
			y.Add(c)
		}
		before := x.Len()
		x2 := x.Clone()
		x2.Union(&y)
		if x2.Len() < before || x2.Len() < y.Len() {
			return false
		}
		inv := x.Clone()
		inv.Invert()
		inv.Invert()
		return *inv == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFirstSetSoundnessProperty(t *testing.T) {
	// For every production and byte b: if b can start a match (checked on
	// simple literal grammars), then b is in the first set. We verify with
	// a fixed grammar over alternatives whose first bytes are known.
	g := grammarOf(t, `
public S = "foo" / "bar" / [x-z] "!" / "q"? "w" ;
`)
	a := Analyze(g)
	s := a.First["m.S"]
	for _, b := range []byte{'f', 'b', 'x', 'y', 'z', 'q', 'w'} {
		if !s.Has(b) {
			t.Errorf("First[S] missing %q", b)
		}
	}
}

func TestValued(t *testing.T) {
	g := grammarOf(t, `
public S = V T N R RV ;
void V = [a-z] ;
text T = [a-z] ;
N = "lit" ;
R = N* ;
RV = T* ;
Chain = N ;
ChainDeep = Chain Chain ;
Tok = [0-9] ;
Pred = &Tok !Tok ;
Cap = $(N) ;
CtorOnly = "x" @X ;
`)
	a := Analyze(g)
	want := map[string]bool{
		"m.S":         true,  // contains T
		"m.V":         false, // void attr
		"m.T":         true,  // text attr
		"m.N":         false, // literal body
		"m.R":         false, // repetition of valueless production
		"m.RV":        true,  // repetition of token-producing production
		"m.Chain":     false, // reference to valueless production
		"m.ChainDeep": false,
		"m.Tok":       true, // char class token
		"m.Pred":      false,
		"m.Cap":       true, // capture
		"m.CtorOnly":  true, // constructor always builds a node
	}
	for name, w := range want {
		if a.Valued[name] != w {
			t.Errorf("Valued[%s] = %v, want %v", name, a.Valued[name], w)
		}
	}
	// ExprValued on an undefined reference stays conservative.
	if !a.ExprValued(peg.Ref("m.Missing")) {
		t.Error("undefined reference must be conservatively valued")
	}
	if a.ExprValued(nil) || a.ExprValued(peg.Eps()) {
		t.Error("nil/empty must be valueless")
	}
}

func TestValuedMutualRecursion(t *testing.T) {
	// Mutually recursive productions that only ever pass each other's
	// (value-free) results along are valueless at the fixpoint.
	g := grammarOf(t, `
public S = A ;
A = "a" B / "a" ;
B = "b" A / "b" ;
`)
	a := Analyze(g)
	if a.Valued["m.A"] || a.Valued["m.B"] {
		t.Fatalf("valued = %v", a.Valued)
	}
	// Adding one token deep in the cycle flips both.
	g2 := grammarOf(t, `
public S = A ;
A = "a" B / "a" ;
B = [x-z] A / "b" ;
`)
	a2 := Analyze(g2)
	if !a2.Valued["m.A"] || !a2.Valued["m.B"] {
		t.Fatalf("valued = %v", a2.Valued)
	}
}

func TestLint(t *testing.T) {
	g := grammarOf(t, `
public S = Keyword / "x" ;
Keyword = "in" / "int" ;
Dead = "d" ;
memo transient Both = "b" ;
void Discarded = x:[a-z] ;
`)
	warnings := Analyze(g).Lint()
	joined := strings.Join(warnings, "\n")
	for _, frag := range []string{
		`"int" is unreachable (shadowed by earlier "in")`,
		"m.Dead: unreachable",
		"m.Both: unreachable",
		"both memo and transient",
		"bindings in a",
	} {
		if !strings.Contains(joined, frag) {
			t.Errorf("lint missing %q in:\n%s", frag, joined)
		}
	}
	// A clean grammar lints clean.
	clean := grammarOf(t, `
public S = "int" / "in" ;
`)
	if w := Analyze(clean).Lint(); len(w) != 0 {
		t.Fatalf("clean grammar warned: %v", w)
	}
}

func TestLintBundledGrammarsAreClean(t *testing.T) {
	// The shadowing detector must not fire on the ordered keyword lists of
	// the bundled grammars (they are longest-first on purpose).
	g, err := core.Compose("m", core.MapResolver{"m": `
module m;
public S = Kw ;
void Kw = ("interface" / "int" / "in") ![a-z] ;
`})
	if err != nil {
		t.Fatal(err)
	}
	if w := Analyze(g).Lint(); len(w) != 0 {
		t.Fatalf("longest-first keywords warned: %v", w)
	}
}
