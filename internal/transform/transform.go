// Package transform implements the grammar-level optimization suite of the
// paper's system as independent, toggleable passes. Together with the
// engine-level options in internal/vm (chunked memoization, transient skip,
// terminal dispatch), these are what make packrat parsing practical.
//
// Passes (in application order):
//
//   - NormalizeClasses: sort and merge character-class ranges.
//   - LeftRecursion: rewrite directly left-recursive productions into
//     peg.LeftRec iteration nodes, preserving left-associative value
//     construction.
//   - ExpandRepetitions: a *pessimization* used to build the paper's
//     baseline — desugars e*/e+ into synthetic recursive productions so
//     that every iteration step is a memoized nonterminal, the way naive
//     packrat parsers work. Off by default.
//   - Inline: replace references to cheap, non-recursive productions with
//     their bodies (value semantics preserved; void and text productions
//     are wrapped accordingly).
//   - FoldPrefixes: factor common alternative prefixes, applied only in
//     value-free contexts (void/text productions and inside captures).
//   - MergeClasses: merge single-byte alternatives into one character
//     class, in value-free contexts.
//   - DeadCode: drop alternatives that can never be reached (after an
//     unconditionally succeeding empty alternative) and productions
//     unreachable from the root.
//   - MarkTransient: mark productions whose memoization cannot pay off
//     (single reference site, or cheaper to re-parse than to memoize) as
//     transient, unless explicitly pinned with `memo`.
//
// Apply clones the input grammar, so optimized and unoptimized versions of
// the same grammar can be compared side by side (the ablation benchmarks do
// exactly that).
package transform

import (
	"fmt"
	"strings"

	"modpeg/internal/analysis"
	"modpeg/internal/peg"
)

// Options selects the passes to run. The zero value runs nothing; use
// Defaults for the standard optimizing pipeline.
type Options struct {
	NormalizeClasses bool
	LeftRecursion    bool
	// ExpandRepetitions is a pessimization used for baseline measurements;
	// it conflicts with nothing but costs time and memo space.
	ExpandRepetitions bool
	Inline            bool
	FoldPrefixes      bool
	MergeClasses      bool
	DeadCode          bool
	MarkTransient     bool
}

const (
	// inlineCost bounds the body cost (analysis.ExprCost units) of the
	// productions Inline considers.
	inlineCost = 12
	// transientCost is the body cost under which MarkTransient considers
	// re-parsing cheaper than memoizing.
	transientCost = 6
)

// Defaults returns the full optimizing pipeline.
func Defaults() Options {
	return Options{
		NormalizeClasses: true,
		LeftRecursion:    true,
		Inline:           true,
		FoldPrefixes:     true,
		MergeClasses:     true,
		DeadCode:         true,
		MarkTransient:    true,
	}
}

// Baseline returns the naive-packrat configuration used as the paper's
// "no optimizations" comparison point: left recursion must still be
// transformed (the engines cannot run it), repetitions are expanded into
// memoized recursive productions, and nothing else runs.
func Baseline() Options {
	return Options{LeftRecursion: true, ExpandRepetitions: true}
}

// Report counts what each pass did, for logs and the ablation tables.
type Report struct {
	ClassesNormalized int
	LeftRecRewritten  int
	RepetitionsSplit  int
	Inlined           int
	PrefixesFolded    int
	ClassesMerged     int
	DeadAlternatives  int
	DeadProductions   int
	MarkedTransient   int
}

// String renders the report as one line per non-zero counter.
func (r *Report) String() string {
	var b strings.Builder
	add := func(label string, n int) {
		if n > 0 {
			fmt.Fprintf(&b, "%s: %d\n", label, n)
		}
	}
	add("character classes normalized", r.ClassesNormalized)
	add("left-recursive productions rewritten", r.LeftRecRewritten)
	add("repetitions expanded", r.RepetitionsSplit)
	add("references inlined", r.Inlined)
	add("common prefixes folded", r.PrefixesFolded)
	add("alternatives merged into classes", r.ClassesMerged)
	add("dead alternatives removed", r.DeadAlternatives)
	add("unreachable productions removed", r.DeadProductions)
	add("productions marked transient", r.MarkedTransient)
	if b.Len() == 0 {
		return "no changes\n"
	}
	return b.String()
}

// Apply runs the selected passes over a clone of g and returns the
// transformed grammar plus a report. The input grammar is not modified.
func Apply(g *peg.Grammar, opts Options) (*peg.Grammar, *Report, error) {
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
		inline(out, rep)
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

// ----------------------------------------------------------- class passes

func normalizeClasses(g *peg.Grammar, rep *Report) {
	for _, name := range g.Order {
		peg.Walk(g.Prods[name].Choice, func(e peg.Expr) {
			if c, ok := e.(*peg.CharClass); ok {
				before := len(c.Ranges)
				c.Normalize()
				if len(c.Ranges) != before {
					rep.ClassesNormalized++
				}
			}
		})
	}
}

// -------------------------------------------------------- left recursion

// rewriteLeftRecursion converts every directly left-recursive production
// "P = P s1 / P s2 / b1 / b2" into "P = leftrec((b1/b2) ; s1 / s2)".
// An alternative counts as left-recursive exactly when its first item is a
// reference to P itself; remaining (indirect/hidden) left recursion is a
// hard error, matching the paper's tool which rejects what it cannot
// transform.
func rewriteLeftRecursion(g *peg.Grammar, rep *Report) error {
	for _, name := range g.Order {
		p := g.Prods[name]
		if p.Choice == nil {
			continue
		}
		var seeds []*peg.Seq
		var suffixes []*peg.Seq
		for _, alt := range p.Choice.Alts {
			if len(alt.Items) > 0 {
				if nt, ok := alt.Items[0].Expr.(*peg.NonTerm); ok && nt.Name == name {
					suffix := &peg.Seq{
						Label: alt.Label,
						Items: alt.Items[1:],
						Ctor:  alt.Ctor,
						Sp:    alt.Sp,
					}
					suffixes = append(suffixes, suffix)
					continue
				}
			}
			seeds = append(seeds, alt)
		}
		if len(suffixes) == 0 {
			continue
		}
		if len(seeds) == 0 {
			return fmt.Errorf("transform: production %q is left-recursive in every alternative", name)
		}
		lr := &peg.LeftRec{
			Name:     name,
			Seed:     &peg.Choice{Alts: seeds, Sp: p.Choice.Sp},
			Suffixes: suffixes,
			Sp:       p.Choice.Sp,
		}
		p.Choice = &peg.Choice{Alts: []*peg.Seq{{Items: []peg.Item{{Expr: lr}}, Sp: p.Choice.Sp}}, Sp: p.Choice.Sp}
		p.Attrs |= peg.AttrSynthetic
		rep.LeftRecRewritten++
	}
	return nil
}

// ------------------------------------------------- repetition expansion

// expandRepetitions desugars each repetition into a synthetic recursive
// production, re-creating the structure a naive packrat parser memoizes
// at every step:
//
//	e*  becomes  R      where  R = e R / ()
//	e+  becomes  e R
//
// To keep semantic values identical to the iterative form, the synthetic
// sequences use the engines' splice protocol: items bound to peg.BindHead
// contribute their (non-nil) value, items bound to peg.BindTail splice the
// callee's list, and the whole sequence produces a flat ast.List — exactly
// what an iterative repetition produces. Repetitions over value-free
// bodies expand to plain void structure instead (their iterative value is
// nil, not an empty list).
func expandRepetitions(g *peg.Grammar, rep *Report) {
	x := &repExpander{g: g, rep: rep, a: analysis.Analyze(g)}
	for _, name := range append([]string(nil), g.Order...) {
		p := g.Prods[name]
		if p.Choice == nil {
			continue
		}
		x.prod = name
		p.Choice = x.expand(p.Choice).(*peg.Choice)
	}
}

// repExpander rewrites repetitions top-down: the valued/void decision for
// an outer repetition must be taken while its body still contains the
// *original* inner repetitions (a synthesized helper reference would look
// value-producing even when the body is void).
type repExpander struct {
	g       *peg.Grammar
	rep     *Report
	a       *analysis.Analysis
	prod    string
	counter int
}

func (x *repExpander) expand(e peg.Expr) peg.Expr {
	switch e := e.(type) {
	case *peg.Repeat:
		return x.expandRepeat(e)
	case *peg.Seq:
		for i := range e.Items {
			e.Items[i].Expr = x.expand(e.Items[i].Expr)
		}
	case *peg.Choice:
		for i, a := range e.Alts {
			e.Alts[i] = x.expand(a).(*peg.Seq)
		}
	case *peg.Optional:
		e.Expr = x.expand(e.Expr)
	case *peg.And:
		e.Expr = x.expand(e.Expr)
	case *peg.Not:
		e.Expr = x.expand(e.Expr)
	case *peg.Capture:
		e.Expr = x.expand(e.Expr)
	case *peg.LeftRec:
		e.Seed = x.expand(e.Seed).(*peg.Choice)
		for i, s := range e.Suffixes {
			e.Suffixes[i] = x.expand(s).(*peg.Seq)
		}
	}
	return e
}

func (x *repExpander) expandRepeat(r *peg.Repeat) peg.Expr {
	x.counter++
	x.rep.RepetitionsSplit++
	helper := fmt.Sprintf("%s#rep%d", x.prod, x.counter)
	valued := x.a.ExprValued(r.Expr) // decided on the un-expanded body
	body := x.expand(peg.CloneExpr(r.Expr))
	bodyAgain := x.expand(peg.CloneExpr(r.Expr))

	var helperBody *peg.Choice
	var plusSeq *peg.Seq
	attrs := peg.AttrSynthetic
	if valued {
		helperBody = &peg.Choice{Alts: []*peg.Seq{
			{Items: []peg.Item{
				{Bind: peg.BindHead, Expr: body},
				{Bind: peg.BindTail, Expr: peg.Ref(helper)},
			}},
			{Items: []peg.Item{{Bind: peg.BindEmpty, Expr: peg.Eps()}}},
		}}
		plusSeq = &peg.Seq{Items: []peg.Item{
			{Bind: peg.BindHead, Expr: bodyAgain},
			{Bind: peg.BindTail, Expr: &peg.NonTerm{Name: helper, Sp: r.Sp}},
		}, Sp: r.Sp}
	} else {
		// The iterative form of a value-free repetition yields nil, so the
		// expansion is void as well.
		attrs |= peg.AttrVoid
		helperBody = peg.Alt(
			peg.SeqOf(body, peg.Ref(helper)),
			peg.SeqOf(peg.Eps()),
		)
		plusSeq = &peg.Seq{Items: []peg.Item{
			{Expr: bodyAgain},
			{Expr: &peg.NonTerm{Name: helper, Sp: r.Sp}},
		}, Sp: r.Sp}
	}
	x.g.Add(&peg.Production{
		Name:   helper,
		Attrs:  attrs,
		Kind:   peg.Define,
		Choice: helperBody,
	})
	if r.Min == 0 {
		return &peg.NonTerm{Name: helper, Sp: r.Sp}
	}
	return plusSeq
}

// ----------------------------------------------------------------- inline

// inline replaces references to small, non-recursive productions with
// their bodies. Inlining these creates and breaks no cycle and keeps
// every expression's valuedness, so one analysis serves every round; only
// the cost moves, and it is read from the current bodies.
func inline(g *peg.Grammar, rep *Report) {
	a := analysis.Analyze(g)
	var inlinable []string
	for _, name := range g.Order {
		p := g.Prods[name]
		if name == g.Root || p.Choice == nil {
			continue
		}
		if p.Attrs.Has(peg.AttrNoInline) || p.Attrs.Has(peg.AttrMemo) {
			continue
		}
		if a.Recursive[name] || hasLeftRec(p.Choice) {
			continue
		}
		// A void production produces nil. Inlining its body would expose
		// the body's values, so only value-free bodies are inlinable.
		if p.Attrs.Has(peg.AttrVoid) && a.ExprValued(p.Choice) {
			continue
		}
		inlinable = append(inlinable, name)
	}
	// Iterate to a fixpoint but bound the rounds to keep growth in check.
	for round := 0; round < 4; round++ {
		candidates := map[string]*peg.Production{}
		for _, name := range inlinable {
			p := g.Prods[name]
			if p.Attrs.Has(peg.AttrInline) || analysis.ExprCost(p.Choice) <= inlineCost {
				candidates[name] = p
			}
		}
		if len(candidates) == 0 {
			return
		}
		changed := 0
		for _, name := range g.Order {
			p := g.Prods[name]
			if p.Choice == nil {
				continue
			}
			p.Choice = peg.Rewrite(p.Choice, func(e peg.Expr) peg.Expr {
				nt, ok := e.(*peg.NonTerm)
				if !ok {
					return e
				}
				target, ok := candidates[nt.Name]
				if !ok || nt.Name == name {
					return e
				}
				changed++
				rep.Inlined++
				return inlineBody(target, nt)
			}).(*peg.Choice)
		}
		if changed == 0 {
			return
		}
	}
}

func hasLeftRec(e peg.Expr) bool {
	found := false
	peg.Walk(e, func(x peg.Expr) {
		if _, ok := x.(*peg.LeftRec); ok {
			found = true
		}
	})
	return found
}

// inlineBody copies target's body in a form whose value semantics equal a
// reference to it: a lone constructor-free alternative is inlined as its
// only item or as its sequence, and only that part is copied.
func inlineBody(target *peg.Production, at *peg.NonTerm) peg.Expr {
	var e peg.Expr
	alts := target.Choice.Alts
	lone := len(alts) == 1 && alts[0].Ctor == ""
	switch {
	case lone && len(alts[0].Items) == 1 && alts[0].Items[0].Bind == "":
		e = peg.CloneExpr(alts[0].Items[0].Expr)
	case lone && !alts[0].HasBindings() && len(alts[0].Items) > 1:
		seq := peg.CloneExpr(alts[0]).(*peg.Seq)
		seq.Label = ""
		e = seq
	default:
		body := peg.CloneExpr(target.Choice).(*peg.Choice)
		// Anchor labels are per-production.
		for _, alt := range body.Alts {
			alt.Label = ""
		}
		e = body
	}
	if target.Attrs.Has(peg.AttrText) {
		return &peg.Capture{Expr: e, Sp: at.Sp}
	}
	return e
}
