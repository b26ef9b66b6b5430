// The string-keyed analysis modpeg shipped before production names were
// interned to dense IDs, kept verbatim (receiver renamed, the shared cost
// model and ByteSet taken from the package) as the oracle that
// TestAnalyzeMatchesReference and FuzzAnalyze hold Analyze to.
package analysis_test

import (
	"fmt"
	"sort"
	"strings"

	"modpeg/internal/analysis"
	"modpeg/internal/peg"
)

// refAnalysis holds the computed properties of one composed grammar.
type refAnalysis struct {
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
	First        map[string]*analysis.ByteSet
	FirstPrecise map[string]bool
	// Valued reports per production whether it can ever produce a non-nil
	// semantic value. The engines use this (interprocedural) property for
	// value specialization — in particular, a repetition whose body is
	// never valued produces nil rather than an empty list, and the
	// property must not change under inlining.
	Valued map[string]bool
}

// refAnalyze computes all properties of g.
func refAnalyze(g *peg.Grammar) *refAnalysis {
	a := &refAnalysis{
		Grammar:       g,
		Nullable:      map[string]bool{},
		Reachable:     map[string]bool{},
		RefCount:      map[string]int{},
		Recursive:     map[string]bool{},
		LeftRecursive: map[string]bool{},
		DirectLeftRec: map[string]bool{},
		Cost:          map[string]int{},
		First:         map[string]*analysis.ByteSet{},
		FirstPrecise:  map[string]bool{},
		Valued:        map[string]bool{},
	}
	a.computeNullable()
	a.computeValued()
	a.computeReachable()
	a.computeRefCounts()
	a.computeRecursion()
	a.computeDirectLeftRec()
	a.computeCosts()
	a.computeFirstSets()
	return a
}

// ---------------------------------------------------------------- nullable

func (a *refAnalysis) computeNullable() {
	changed := true
	for changed {
		changed = false
		for _, name := range a.Grammar.Order {
			p := a.Grammar.Prods[name]
			if a.Nullable[name] {
				continue
			}
			if p.Choice != nil && a.exprNullable(p.Choice) {
				a.Nullable[name] = true
				changed = true
			}
		}
	}
}

// exprNullable reports whether e can succeed without consuming input, under
// the current (monotonically growing) production table.
func (a *refAnalysis) exprNullable(e peg.Expr) bool {
	switch e := e.(type) {
	case *peg.Empty:
		return true
	case *peg.Literal:
		return len(e.Text) == 0
	case *peg.CharClass, *peg.Any:
		return false
	case *peg.NonTerm:
		return a.Nullable[e.Name]
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

// ----------------------------------------------------------------- valued

// computeValued computes, to a fixpoint, whether each production can
// produce a non-nil semantic value. text productions always produce a
// token; void productions never produce anything; otherwise the body
// decides, looking through references.
func (a *refAnalysis) computeValued() {
	changed := true
	for changed {
		changed = false
		for _, name := range a.Grammar.Order {
			if a.Valued[name] {
				continue
			}
			p := a.Grammar.Prods[name]
			v := false
			switch {
			case p.Attrs.Has(peg.AttrText):
				v = true
			case p.Attrs.Has(peg.AttrVoid):
				v = false
			default:
				v = a.ExprValued(p.Choice)
			}
			if v {
				a.Valued[name] = true
				changed = true
			}
		}
	}
}

// ExprValued reports whether e can produce a non-nil semantic value,
// looking through nonterminal references (monotone under the current
// Valued table; exact after Analyze).
func (a *refAnalysis) ExprValued(e peg.Expr) bool {
	switch e := e.(type) {
	case nil, *peg.Empty, *peg.Literal, *peg.And, *peg.Not:
		return false
	case *peg.CharClass, *peg.Any, *peg.Capture:
		return true
	case *peg.NonTerm:
		if _, defined := a.Grammar.Prods[e.Name]; !defined {
			return true // undefined (reported elsewhere): stay conservative
		}
		return a.Valued[e.Name]
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

// -------------------------------------------------------------- reachable

func (a *refAnalysis) computeReachable() {
	if a.Grammar.Root == "" {
		return
	}
	var visit func(name string)
	visit = func(name string) {
		if a.Reachable[name] {
			return
		}
		a.Reachable[name] = true
		p := a.Grammar.Prods[name]
		if p == nil {
			return
		}
		peg.Walk(p.Choice, func(e peg.Expr) {
			if nt, ok := e.(*peg.NonTerm); ok {
				visit(nt.Name)
			}
		})
	}
	visit(a.Grammar.Root)
}

func (a *refAnalysis) computeRefCounts() {
	if a.Grammar.Root != "" {
		a.RefCount[a.Grammar.Root]++
	}
	for _, name := range a.Grammar.Order {
		if !a.Reachable[name] {
			continue
		}
		p := a.Grammar.Prods[name]
		peg.Walk(p.Choice, func(e peg.Expr) {
			if nt, ok := e.(*peg.NonTerm); ok {
				a.RefCount[nt.Name]++
			}
		})
	}
}

// -------------------------------------------------------------- recursion

// computeRecursion finds cycles in the full call graph (Recursive) and in
// the left-edge call graph (LeftRecursive).
func (a *refAnalysis) computeRecursion() {
	full := map[string][]string{}
	left := map[string][]string{}
	for _, name := range a.Grammar.Order {
		p := a.Grammar.Prods[name]
		fullSet := map[string]bool{}
		peg.Walk(p.Choice, func(e peg.Expr) {
			if nt, ok := e.(*peg.NonTerm); ok {
				fullSet[nt.Name] = true
			}
		})
		full[name] = sortedKeys(fullSet)
		leftSet := map[string]bool{}
		if p.Choice != nil {
			a.leftCalls(p.Choice, leftSet)
		}
		left[name] = sortedKeys(leftSet)
	}
	for name, set := range reachesSelf(full) {
		a.Recursive[name] = set
	}
	for name, set := range reachesSelf(left) {
		a.LeftRecursive[name] = set
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// reachesSelf returns, for every node of the graph, whether the node can
// reach itself through one or more edges.
func reachesSelf(graph map[string][]string) map[string]bool {
	out := map[string]bool{}
	for start := range graph {
		seen := map[string]bool{}
		stack := append([]string(nil), graph[start]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == start {
				out[start] = true
				break
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, graph[n]...)
		}
	}
	return out
}

// leftCalls collects the productions callable before any input has been
// consumed by e. Predicates are included (they parse at the same position).
func (a *refAnalysis) leftCalls(e peg.Expr, out map[string]bool) {
	switch e := e.(type) {
	case *peg.NonTerm:
		out[e.Name] = true
	case *peg.Capture:
		a.leftCalls(e.Expr, out)
	case *peg.And:
		a.leftCalls(e.Expr, out)
	case *peg.Not:
		a.leftCalls(e.Expr, out)
	case *peg.Optional:
		a.leftCalls(e.Expr, out)
	case *peg.Repeat:
		a.leftCalls(e.Expr, out)
	case *peg.Seq:
		for _, it := range e.Items {
			a.leftCalls(it.Expr, out)
			if !a.exprNullable(it.Expr) {
				break
			}
		}
	case *peg.Choice:
		for _, alt := range e.Alts {
			a.leftCalls(alt, out)
		}
	case *peg.LeftRec:
		a.leftCalls(e.Seed, out)
		if a.exprNullable(e.Seed) {
			for _, s := range e.Suffixes {
				a.leftCalls(s, out)
			}
		}
	}
}

// computeDirectLeftRec flags productions whose choice has an alternative
// literally beginning with a self-reference — the pattern the optimizer's
// left-recursion transform rewrites to iteration.
func (a *refAnalysis) computeDirectLeftRec() {
	for _, name := range a.Grammar.Order {
		p := a.Grammar.Prods[name]
		if p.Choice == nil {
			continue
		}
		for _, alt := range p.Choice.Alts {
			if len(alt.Items) == 0 {
				continue
			}
			if nt, ok := alt.Items[0].Expr.(*peg.NonTerm); ok && nt.Name == name {
				a.DirectLeftRec[name] = true
				break
			}
		}
	}
}

func (a *refAnalysis) computeCosts() {
	for _, name := range a.Grammar.Order {
		a.Cost[name] = analysis.ExprCost(a.Grammar.Prods[name].Choice)
	}
}

// ------------------------------------------------------------- first sets

// computeFirstSets computes, per production, the set of bytes a successful
// match can start with. The computation iterates to a fixpoint; precision
// is tracked so the engines only build dispatch tables from exact sets.
func (a *refAnalysis) computeFirstSets() {
	for _, name := range a.Grammar.Order {
		a.First[name] = &analysis.ByteSet{}
		a.FirstPrecise[name] = true
	}
	changed := true
	for changed {
		changed = false
		for _, name := range a.Grammar.Order {
			p := a.Grammar.Prods[name]
			set, precise := a.firstOf(p.Choice)
			old := a.First[name]
			if !setEqual(old, set) {
				a.First[name] = set
				changed = true
			}
			if precise != a.FirstPrecise[name] && !precise {
				a.FirstPrecise[name] = false
				changed = true
			}
		}
	}
}

func setEqual(x, y *analysis.ByteSet) bool { return *x == *y }

// firstOf returns the first-byte over-approximation of e and whether it is
// precise. A precise set S guarantees: if the next input byte is not in S
// and e is not nullable, e cannot match.
func (a *refAnalysis) firstOf(e peg.Expr) (*analysis.ByteSet, bool) {
	set := &analysis.ByteSet{}
	precise := true
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
		if f := a.First[e.Name]; f != nil {
			set.Union(f)
			precise = a.FirstPrecise[e.Name]
		} else {
			// Undefined reference (reported by Check): assume anything.
			set.AddAll()
			precise = false
		}
	case *peg.Capture:
		return a.firstOf(e.Expr)
	case *peg.And, *peg.Not:
		// Predicates do not consume; they constrain, which only ever
		// shrinks the true first set, so contributing nothing stays an
		// over-approximation. But a sequence headed by a predicate cannot
		// be dispatched on, so mark imprecise.
		precise = false
	case *peg.Optional:
		s, p := a.firstOf(e.Expr)
		set.Union(s)
		precise = p
	case *peg.Repeat:
		s, p := a.firstOf(e.Expr)
		set.Union(s)
		precise = p
	case *peg.Seq:
		for _, it := range e.Items {
			s, p := a.firstOf(it.Expr)
			set.Union(s)
			if !p {
				precise = false
			}
			if !a.exprNullable(it.Expr) {
				break
			}
		}
	case *peg.Choice:
		for _, alt := range e.Alts {
			s, p := a.firstOf(alt)
			set.Union(s)
			if !p {
				precise = false
			}
		}
	case *peg.LeftRec:
		s, p := a.firstOf(e.Seed)
		set.Union(s)
		if !p {
			precise = false
		}
		if a.exprNullable(e.Seed) {
			for _, sx := range e.Suffixes {
				s, p := a.firstOf(sx)
				set.Union(s)
				if !p {
					precise = false
				}
			}
		}
	}
	return set, precise
}

// Check validates the grammar for execution: the root exists, every
// reference is defined, no production is left-recursive unless it is the
// directly-rewritable pattern (which the optimizer can transform and the
// engines refuse to run untransformed), and no repetition body is nullable.
//
// The returned error (if any) aggregates every violation, one per line.
func (a *refAnalysis) Check() error {
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
func (a *refAnalysis) CheckTransformed() error {
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

// BacktrackPrefixes returns the productions an ordered parse can invoke
// a second time at the same input position — the memoization set that
// actually pays for itself. A packrat column earns its keep only when
// some choice point re-enters the production at a position it has
// already been tried at, and in a PEG those re-entries are statically
// visible: they are the common leftmost prefixes of expressions that
// compete for the same starting position. Three constructs create such
// competition:
//
//   - ordered choice: when `A = X α / Y β` fails out of the first
//     alternative, the second starts over at the choice's position, so
//     any production on both alternatives' leftmost frontiers is parsed
//     twice there (Conditional's `c:Or "?" … / Or` re-enters Or);
//   - a nullable prefix in a sequence: in `A? B`, when A succeeds empty
//     or fails, B probes the same position A just examined;
//   - left-recursion suffixes: each growth step tries every suffix at
//     the current end, so the suffixes' leftmost frontiers compete.
//
// For each competition group the pairwise intersections of the
// competitors' transitive leftmost-call closures are taken, and only
// the outermost members of each intersection are kept: once the
// outermost shared production memo-hits, the retry never descends to
// the inner ones, so memoizing those would be dead weight (Conditional
// retry hits LogicalOr and never re-probes the tower below it).
//
// The compiled engine (internal/vm) uses this set as its memo policy.
// The set is static, derived from the grammar alone, which is what lets
// registry uploads compile cold.
func (a *refAnalysis) BacktrackPrefixes() map[string]bool {
	// Transitive closure of the leftmost-call graph, per production.
	direct := make(map[string][]string, len(a.Grammar.Order))
	for _, name := range a.Grammar.Order {
		p := a.Grammar.Prods[name]
		if p.Choice == nil {
			continue
		}
		set := map[string]bool{}
		a.leftCalls(p.Choice, set)
		direct[name] = sortedKeys(set)
	}
	closure := make(map[string]map[string]bool, len(direct))
	for name := range direct {
		seen := map[string]bool{}
		stack := append([]string(nil), direct[name]...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, direct[n]...)
		}
		closure[name] = seen
	}

	// expand is a competitor's leftmost frontier: the productions its
	// expression can call before consuming input, plus everything those
	// can left-call in turn.
	expand := func(e peg.Expr) map[string]bool {
		out := map[string]bool{}
		a.leftCalls(e, out)
		for _, name := range sortedKeys(out) {
			for q := range closure[name] {
				out[q] = true
			}
		}
		return out
	}

	out := map[string]bool{}
	mark := func(group []map[string]bool) {
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				for p := range group[i] {
					if !group[j][p] {
						continue
					}
					// Keep p unless some other shared production sits
					// strictly above it on the leftmost frontier.
					dominated := false
					for q := range group[i] {
						if q != p && group[j][q] && closure[q][p] && !closure[p][q] {
							dominated = true
							break
						}
					}
					if !dominated {
						out[p] = true
					}
				}
			}
		}
	}

	for _, name := range a.Grammar.Order {
		if !a.Reachable[name] {
			continue
		}
		p := a.Grammar.Prods[name]
		if p.Choice == nil {
			continue
		}
		peg.Walk(p.Choice, func(e peg.Expr) {
			switch e := e.(type) {
			case *peg.Choice:
				if len(e.Alts) < 2 {
					return
				}
				group := make([]map[string]bool, len(e.Alts))
				for i, alt := range e.Alts {
					group[i] = expand(alt)
				}
				mark(group)
			case *peg.Seq:
				// Items up to and including the first non-nullable one
				// all start at the sequence's own position.
				var group []map[string]bool
				for _, it := range e.Items {
					group = append(group, expand(it.Expr))
					if !a.exprNullable(it.Expr) {
						break
					}
				}
				if len(group) >= 2 {
					mark(group)
				}
			case *peg.LeftRec:
				if len(e.Suffixes) < 2 {
					return
				}
				group := make([]map[string]bool, len(e.Suffixes))
				for i, s := range e.Suffixes {
					group[i] = expand(s)
				}
				mark(group)
			}
		})
	}
	return out
}
