// Package analysis computes the static grammar properties that drive
// modpeg's optimizer, engines, and well-formedness checks:
//
//   - nullability (which productions can match the empty string),
//   - reachability from the root,
//   - reference counts,
//   - recursion (general, left, and directly-left-recursive productions),
//   - first-byte sets for terminal dispatch,
//   - a cost model for inlining decisions.
//
// Analyze interns production names to dense IDs and computes everything
// over them in time linear in the grammar: one walk per production body
// collects its call edges, one strongly-connected-component pass per call
// graph finds recursion, and one worklist over the reversed call edges
// reaches the nullability, valuedness and first-set fixpoint. Check turns
// the properties into the errors the paper's system reports at generation
// time (left recursion that cannot be transformed, repetition of nullable
// expressions, unreachable or missing productions).
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"modpeg/internal/peg"
)

// Analysis holds the computed properties of one composed grammar.
type Analysis struct {
	Grammar *peg.Grammar

	// Nullable reports per production whether it can succeed without
	// consuming input.
	Nullable map[string]bool
	// Reachable reports per production whether the root can reach it.
	Reachable map[string]bool
	// RefCount counts, per production, the number of reference sites in
	// reachable productions (the root gets one implicit reference).
	RefCount map[string]int
	// Recursive reports per production whether it can (transitively) call
	// itself.
	Recursive map[string]bool
	// LeftRecursive reports per production whether it can call itself
	// without consuming input first (general left recursion).
	LeftRecursive map[string]bool
	// DirectLeftRec reports productions with the *directly* rewritable
	// pattern: an alternative whose first item is a reference to the
	// production itself.
	DirectLeftRec map[string]bool
	// Cost estimates the work of parsing one attempt of the production's
	// body (used by the inliner).
	Cost map[string]int
	// First maps productions to an over-approximate set of bytes a
	// successful non-empty match can start with; FirstPrecise reports
	// whether the set is exact enough for dispatch (no predicates or
	// imprecision on the left edge).
	First        map[string]*ByteSet
	FirstPrecise map[string]bool
	// Valued reports per production whether it can ever produce a non-nil
	// semantic value. The engines use this (interprocedural) property for
	// value specialization — in particular, a repetition whose body is
	// never valued produces nil rather than an empty list, and the
	// property must not change under inlining.
	Valued map[string]bool

	// The dense form the properties are computed in. A production's ID
	// is its index in Grammar.Order; a name that is referenced (or is the
	// root) but not defined gets an ID past the end, and no body. The
	// slices are indexed by ID.
	ids      map[string]int
	names    []string
	calls    [][]int // every reference site of the body, in walk order
	left     [][]int // the references callable before input is consumed
	nullable []bool
	valued   []bool
	first    []ByteSet
	precise  []bool
}

// Analyze computes all properties of g.
func Analyze(g *peg.Grammar) *Analysis {
	a := index(g)
	comp, order := sccs(a.calls)
	a.computeFacts(order)
	a.left = make([][]int, len(a.names))
	for v, name := range g.Order {
		a.left[v] = a.leftCalls(g.Prods[name].Choice, nil)
	}
	leftComp, _ := sccs(a.left)
	reach := a.reach()
	refs := make([]int, len(a.names))
	if g.Root != "" {
		refs[a.ids[g.Root]]++
	}
	for v := range g.Order {
		if reach[v] {
			for _, w := range a.calls[v] {
				refs[w]++
			}
		}
	}

	n := len(g.Order)
	a.Nullable, a.Valued = map[string]bool{}, make(map[string]bool, n)
	a.Reachable, a.RefCount = make(map[string]bool, n), make(map[string]int, n)
	a.Recursive, a.LeftRecursive, a.DirectLeftRec = map[string]bool{}, map[string]bool{}, map[string]bool{}
	a.Cost, a.First, a.FirstPrecise = make(map[string]int, n), make(map[string]*ByteSet, n), make(map[string]bool, n)
	for v, name := range a.names {
		setIf(a.Reachable, name, reach[v])
		if refs[v] > 0 {
			a.RefCount[name] = refs[v]
		}
		if v >= n {
			continue
		}
		p := g.Prods[name]
		setIf(a.Nullable, name, a.nullable[v])
		setIf(a.Valued, name, a.valued[v])
		setIf(a.Recursive, name, selfReaching(a.calls[v], comp, v))
		setIf(a.LeftRecursive, name, selfReaching(a.left[v], leftComp, v))
		setIf(a.DirectLeftRec, name, directLeftRec(name, p.Choice))
		a.Cost[name] = ExprCost(p.Choice)
		a.First[name] = &a.first[v]
		a.FirstPrecise[name] = a.precise[v]
	}
	return a
}

func setIf(m map[string]bool, name string, v bool) {
	if v {
		m[name] = true
	}
}

// index interns g's production names and collects every body's reference
// sites: the part of the analysis every property needs.
func index(g *peg.Grammar) *Analysis {
	a := &Analysis{Grammar: g, ids: make(map[string]int, len(g.Order)), names: append([]string(nil), g.Order...)}
	for v, name := range g.Order {
		a.ids[name] = v
	}
	intern := func(name string) int {
		v, ok := a.ids[name]
		if !ok {
			v = len(a.names)
			a.ids[name] = v
			a.names = append(a.names, name)
		}
		return v
	}
	a.calls = make([][]int, len(g.Order))
	for v, name := range g.Order {
		peg.Walk(g.Prods[name].Choice, func(e peg.Expr) {
			if nt, ok := e.(*peg.NonTerm); ok {
				a.calls[v] = append(a.calls[v], intern(nt.Name))
			}
		})
	}
	if g.Root != "" {
		intern(g.Root)
	}
	a.calls = append(a.calls, make([][]int, len(a.names)-len(a.calls))...)
	return a
}

// reach reports per ID whether the root can reach it.
func (a *Analysis) reach() []bool {
	reach := make([]bool, len(a.names))
	if a.Grammar.Root == "" {
		return reach
	}
	stack := []int{a.ids[a.Grammar.Root]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !reach[v] {
			reach[v] = true
			stack = append(stack, a.calls[v]...)
		}
	}
	return reach
}

// Reachable returns the productions g's root can reach, as
// Analysis.Reachable does, without computing anything else.
func Reachable(g *peg.Grammar) map[string]bool {
	a := index(g)
	out := map[string]bool{}
	for v, r := range a.reach() {
		setIf(out, a.names[v], r)
	}
	return out
}

// ------------------------------------------------------------- recursion

// sccs numbers the strongly connected components of the graph given as
// edge lists (Tarjan's algorithm, components numbered from 1). order
// lists the nodes as their components complete, which puts every node's
// callees' components before its own.
func sccs(edges [][]int) (comp, order []int) {
	comp = make([]int, len(edges))
	num := make([]int, len(edges)) // discovery number; 0 = unvisited
	low := make([]int, len(edges))
	var stack []int
	next, ncomp := 0, 0
	var visit func(v int)
	visit = func(v int) {
		next++
		num[v], low[v] = next, next
		stack = append(stack, v)
		for _, w := range edges[v] {
			if num[w] == 0 {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if comp[w] == 0 { // still on the stack
				low[v] = min(low[v], num[w])
			}
		}
		if low[v] == num[v] {
			ncomp++
			for w := -1; w != v; {
				w = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp[w] = ncomp
				order = append(order, w)
			}
		}
	}
	for v := range edges {
		if num[v] == 0 {
			visit(v)
		}
	}
	return comp, order
}

// selfReaching reports whether node v, with the given out-edges, can
// reach itself: exactly when one edge stays inside its component.
func selfReaching(edges, comp []int, v int) bool {
	for _, w := range edges {
		if comp[w] == comp[v] {
			return true
		}
	}
	return false
}

// leftCalls appends the IDs of the productions callable before any input
// has been consumed by e. Predicates are included (they parse at the same
// position).
func (a *Analysis) leftCalls(e peg.Expr, out []int) []int {
	switch e := e.(type) {
	case *peg.NonTerm:
		out = append(out, a.ids[e.Name])
	case *peg.Capture:
		out = a.leftCalls(e.Expr, out)
	case *peg.And:
		out = a.leftCalls(e.Expr, out)
	case *peg.Not:
		out = a.leftCalls(e.Expr, out)
	case *peg.Optional:
		out = a.leftCalls(e.Expr, out)
	case *peg.Repeat:
		out = a.leftCalls(e.Expr, out)
	case *peg.Seq:
		for _, it := range e.Items {
			out = a.leftCalls(it.Expr, out)
			if !a.exprNullable(it.Expr) {
				break
			}
		}
	case *peg.Choice:
		for _, alt := range e.Alts {
			out = a.leftCalls(alt, out)
		}
	case *peg.LeftRec:
		out = a.leftCalls(e.Seed, out)
		if a.exprNullable(e.Seed) {
			for _, s := range e.Suffixes {
				out = a.leftCalls(s, out)
			}
		}
	}
	return out
}

// directLeftRec reports whether the choice has an alternative literally
// beginning with a self-reference — the pattern the optimizer's
// left-recursion transform rewrites to iteration.
func directLeftRec(name string, c *peg.Choice) bool {
	if c == nil {
		return false
	}
	for _, alt := range c.Alts {
		if len(alt.Items) > 0 {
			if nt, ok := alt.Items[0].Expr.(*peg.NonTerm); ok && nt.Name == name {
				return true
			}
		}
	}
	return false
}

// ------------------------------------------------------------------ facts

// computeFacts reaches the least fixpoint of nullability, valuedness and
// first sets together. Each production is evaluated once, callees first
// (order), and again only when a production it references has changed.
// Nullability, valuedness, first sets and imprecision only grow, so the
// result is the one a round-robin iteration of each property in turn
// reaches.
func (a *Analysis) computeFacts(order []int) {
	g, n := a.Grammar, len(a.names)
	a.nullable, a.valued, a.first, a.precise = make([]bool, n), make([]bool, n), make([]ByteSet, n), make([]bool, n)
	callers := make([][]int, n)
	for v, ws := range a.calls {
		for _, w := range ws {
			callers[w] = append(callers[w], v)
		}
	}
	queued := make([]bool, n)
	queue := make([]int, 0, n)
	for _, v := range order {
		if v < len(g.Order) {
			a.precise[v], queued[v] = true, true
			queue = append(queue, v)
		} else {
			// Undefined (reported by Check): stay conservative.
			a.valued[v] = true
			a.first[v].AddAll()
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue, queued[v] = queue[1:], false
		p := g.Prods[a.names[v]]
		changed := false
		if !a.nullable[v] && a.exprNullable(p.Choice) {
			a.nullable[v], changed = true, true
		}
		// text productions always produce a token; void productions never
		// produce anything; otherwise the body decides.
		if !a.valued[v] && (p.Attrs.Has(peg.AttrText) || !p.Attrs.Has(peg.AttrVoid) && a.ExprValued(p.Choice)) {
			a.valued[v], changed = true, true
		}
		if set, precise := a.firstOf(p.Choice); set != a.first[v] || a.precise[v] && !precise {
			a.first[v], a.precise[v], changed = set, a.precise[v] && precise, true
		}
		for _, c := range callers[v] {
			if changed && !queued[c] {
				queued[c] = true
				queue = append(queue, c)
			}
		}
	}
}

// exprNullable reports whether e can succeed without consuming input, under
// the current (monotonically growing) production table.
func (a *Analysis) exprNullable(e peg.Expr) bool {
	switch e := e.(type) {
	case *peg.Empty:
		return true
	case *peg.Literal:
		return len(e.Text) == 0
	case *peg.CharClass, *peg.Any:
		return false
	case *peg.NonTerm:
		v, ok := a.ids[e.Name]
		return ok && a.nullable[v]
	case *peg.Capture:
		return a.exprNullable(e.Expr)
	case *peg.And, *peg.Not:
		return true
	case *peg.Optional:
		return true
	case *peg.Repeat:
		if e.Min == 0 {
			return true
		}
		return a.exprNullable(e.Expr)
	case *peg.Seq:
		for _, it := range e.Items {
			if !a.exprNullable(it.Expr) {
				return false
			}
		}
		return true
	case *peg.Choice:
		for _, alt := range e.Alts {
			if a.exprNullable(alt) {
				return true
			}
		}
		return false
	case *peg.LeftRec:
		// Suffixes iterate zero or more times; the seed decides.
		return a.exprNullable(e.Seed)
	default:
		return false
	}
}

// ExprValued reports whether e can produce a non-nil semantic value,
// looking through nonterminal references (monotone under the current
// Valued table; exact after Analyze).
func (a *Analysis) ExprValued(e peg.Expr) bool {
	switch e := e.(type) {
	case nil, *peg.Empty, *peg.Literal, *peg.And, *peg.Not:
		return false
	case *peg.CharClass, *peg.Any, *peg.Capture:
		return true
	case *peg.NonTerm:
		v, ok := a.ids[e.Name]
		return !ok || a.valued[v] // undefined names are valued
	case *peg.Optional:
		return a.ExprValued(e.Expr)
	case *peg.Repeat:
		return a.ExprValued(e.Expr)
	case *peg.Seq:
		if e.Ctor != "" {
			return true
		}
		for _, it := range e.Items {
			if a.ExprValued(it.Expr) {
				return true
			}
		}
		return false
	case *peg.Choice:
		for _, alt := range e.Alts {
			if a.ExprValued(alt) {
				return true
			}
		}
		return false
	case *peg.LeftRec:
		if a.ExprValued(e.Seed) {
			return true
		}
		for _, s := range e.Suffixes {
			if a.ExprValued(s) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// firstOf returns the first-byte over-approximation of e and whether it is
// precise. A precise set S guarantees: if the next input byte is not in S
// and e is not nullable, e cannot match.
func (a *Analysis) firstOf(e peg.Expr) (set ByteSet, precise bool) {
	precise = true
	switch e := e.(type) {
	case nil, *peg.Empty:
		// matches empty; contributes nothing
	case *peg.Literal:
		if len(e.Text) > 0 {
			set.Add(e.Text[0])
		}
	case *peg.CharClass:
		for _, r := range e.Ranges {
			set.AddRange(r.Lo, r.Hi)
		}
		if e.Negated {
			set.Invert()
		}
	case *peg.Any:
		set.AddAll()
	case *peg.NonTerm:
		if v, ok := a.ids[e.Name]; ok {
			return a.first[v], a.precise[v]
		}
		set.AddAll()
		precise = false
	case *peg.Capture:
		return a.firstOf(e.Expr)
	case *peg.And, *peg.Not:
		// Predicates do not consume; they constrain, which only ever
		// shrinks the true first set, so contributing nothing stays an
		// over-approximation. But a sequence headed by a predicate cannot
		// be dispatched on, so mark imprecise.
		precise = false
	case *peg.Optional:
		return a.firstOf(e.Expr)
	case *peg.Repeat:
		return a.firstOf(e.Expr)
	case *peg.Seq:
		for _, it := range e.Items {
			s, p := a.firstOf(it.Expr)
			set.Union(&s)
			precise = precise && p
			if !a.exprNullable(it.Expr) {
				break
			}
		}
	case *peg.Choice:
		for _, alt := range e.Alts {
			s, p := a.firstOf(alt)
			set.Union(&s)
			precise = precise && p
		}
	case *peg.LeftRec:
		set, precise = a.firstOf(e.Seed)
		if a.exprNullable(e.Seed) {
			for _, sx := range e.Suffixes {
				s, p := a.firstOf(sx)
				set.Union(&s)
				precise = precise && p
			}
		}
	}
	return set, precise
}

// ------------------------------------------------------------------- cost

// Cost weights per expression kind; a nonterminal reference costs the call
// overhead, not the callee's cost (inlining decisions look at the callee's
// own cost separately).
const (
	costByte    = 1 // one byte comparison
	costCall    = 4 // nonterminal invocation (memo probe + dispatch)
	costPred    = 2 // predicate save/restore
	costRepeat  = 3 // loop setup
	costCapture = 2
)

// ExprCost estimates the work of one attempt at e.
func ExprCost(e peg.Expr) int {
	switch e := e.(type) {
	case nil, *peg.Empty:
		return 0
	case *peg.Literal:
		return costByte * len(e.Text)
	case *peg.CharClass, *peg.Any:
		return costByte
	case *peg.NonTerm:
		return costCall
	case *peg.Capture:
		return costCapture + ExprCost(e.Expr)
	case *peg.And:
		return costPred + ExprCost(e.Expr)
	case *peg.Not:
		return costPred + ExprCost(e.Expr)
	case *peg.Optional:
		return 1 + ExprCost(e.Expr)
	case *peg.Repeat:
		return costRepeat + ExprCost(e.Expr)
	case *peg.Seq:
		n := 0
		for _, it := range e.Items {
			n += ExprCost(it.Expr)
		}
		return n
	case *peg.Choice:
		n := 0
		for _, alt := range e.Alts {
			n += ExprCost(alt)
		}
		return n
	case *peg.LeftRec:
		n := costRepeat + ExprCost(e.Seed)
		for _, s := range e.Suffixes {
			n += ExprCost(s)
		}
		return n
	default:
		return costCall
	}
}

// ------------------------------------------------------------------ check

// FirstOfExpr exposes the expression-level first-byte computation for
// engine compilers building dispatch tables.
func FirstOfExpr(a *Analysis, e peg.Expr) (*ByteSet, bool) {
	set, precise := a.firstOf(e)
	return &set, precise
}

// NullableExpr exposes the expression-level nullability test.
func NullableExpr(a *Analysis, e peg.Expr) bool { return a.exprNullable(e) }

// Check validates the grammar for execution: the root exists, every
// reference is defined, no production is left-recursive unless it is the
// directly-rewritable pattern (which the optimizer can transform and the
// engines refuse to run untransformed), and no repetition body is nullable.
//
// The returned error (if any) aggregates every violation, one per line.
func (a *Analysis) Check() error {
	var problems []string
	g := a.Grammar
	if g.Root == "" {
		problems = append(problems, "grammar has no root production")
	} else if g.Prods[g.Root] == nil {
		problems = append(problems, fmt.Sprintf("root production %q is not defined", g.Root))
	}
	for _, name := range g.Order {
		p := g.Prods[name]
		peg.Walk(p.Choice, func(e peg.Expr) {
			switch e := e.(type) {
			case *peg.NonTerm:
				if g.Prods[e.Name] == nil {
					problems = append(problems, fmt.Sprintf("%s: undefined reference %q", name, e.Name))
				}
			case *peg.Repeat:
				if a.exprNullable(e.Expr) {
					problems = append(problems,
						fmt.Sprintf("%s: repetition body %s can match the empty string (would loop forever)",
							name, peg.FormatExpr(e.Expr)))
				}
			case *peg.LeftRec:
				for _, s := range e.Suffixes {
					if a.exprNullable(s) {
						problems = append(problems,
							fmt.Sprintf("%s: left-recursion suffix %s can match the empty string (would loop forever)",
								name, peg.FormatExpr(s)))
					}
				}
			}
		})
		if a.LeftRecursive[name] && !a.DirectLeftRec[name] {
			problems = append(problems,
				fmt.Sprintf("%s: left recursion is not in the directly transformable form", name))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("grammar check failed:\n  %s", strings.Join(problems, "\n  "))
}

// CheckTransformed is the stricter post-optimization check: in addition to
// Check, no left recursion at all may remain (the engines assume it).
func (a *Analysis) CheckTransformed() error {
	if err := a.Check(); err != nil {
		return err
	}
	var problems []string
	for _, name := range a.Grammar.Order {
		if a.LeftRecursive[name] {
			problems = append(problems, fmt.Sprintf("%s: left recursion survived transformation", name))
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("grammar check failed:\n  %s", strings.Join(problems, "\n  "))
}
