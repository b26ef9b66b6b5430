package transform

import (
	"modpeg/internal/analysis"
	"modpeg/internal/peg"
)

// ----------------------------------------------------------- fold prefixes

// foldPrefixes factors common leading items out of adjacent alternatives,
// but only in value-free contexts (void/text productions and capture
// bodies), where restructuring cannot change semantic values:
//
//	"ab" X / "ab" Y / "c"   becomes   "ab" (X / Y) / "c"
func foldPrefixes(g *peg.Grammar, rep *Report) {
	for _, name := range g.Order {
		p := g.Prods[name]
		if p.Choice == nil {
			continue
		}
		if p.Attrs.Has(peg.AttrVoid) || p.Attrs.Has(peg.AttrText) {
			p.Choice = foldChoice(p.Choice, rep)
		}
		// Inside captures the inner values are discarded, so folding is
		// always safe there.
		p.Choice = peg.Rewrite(p.Choice, func(e peg.Expr) peg.Expr {
			if cap, ok := e.(*peg.Capture); ok {
				if c, ok := cap.Expr.(*peg.Choice); ok {
					cap.Expr = foldChoice(c, rep)
				}
			}
			return e
		}).(*peg.Choice)
	}
}

// foldChoice folds runs of adjacent alternatives that share their first
// item; it recurses into the folded tails.
func foldChoice(c *peg.Choice, rep *Report) *peg.Choice {
	if len(c.Alts) < 2 {
		return c
	}
	var out []*peg.Seq
	i := 0
	for i < len(c.Alts) {
		run := []*peg.Seq{c.Alts[i]}
		j := i + 1
		for j < len(c.Alts) && foldable(c.Alts[i], c.Alts[j]) {
			run = append(run, c.Alts[j])
			j++
		}
		if len(run) < 2 {
			out = append(out, c.Alts[i])
			i++
			continue
		}
		rep.PrefixesFolded += len(run) - 1
		head := run[0].Items[0]
		tails := &peg.Choice{Sp: c.Sp}
		for _, alt := range run {
			tails.Alts = append(tails.Alts, &peg.Seq{Items: alt.Items[1:], Sp: alt.Sp})
		}
		tails = foldChoice(tails, rep)
		folded := &peg.Seq{
			Items: []peg.Item{head, {Expr: tails}},
			Sp:    run[0].Sp,
		}
		out = append(out, folded)
		i = j
	}
	c.Alts = out
	return c
}

// foldable reports whether two alternatives may be folded on their first
// item: both must be unlabeled (labels are modification anchors),
// constructor-free, binding-free, non-empty, and share an equal first item.
func foldable(a, b *peg.Seq) bool {
	if a.Label != "" || b.Label != "" || a.Ctor != "" || b.Ctor != "" {
		return false
	}
	if a.HasBindings() || b.HasBindings() {
		return false
	}
	if len(a.Items) == 0 || len(b.Items) == 0 {
		return false
	}
	// Folding a nullable head would change backtracking behaviour only in
	// the presence of predicates; item equality keeps it safe because a
	// PEG's first item match is deterministic for identical expressions.
	return peg.EqualExpr(a.Items[0].Expr, b.Items[0].Expr)
}

// ----------------------------------------------------------- merge classes

// mergeClasses merges runs of adjacent single-byte alternatives (one-byte
// literals and character classes) into a single character class — the
// terminal optimization for lexical choices. Value-free contexts only,
// because a literal is void while a class produces a token.
func mergeClasses(g *peg.Grammar, rep *Report) {
	for _, name := range g.Order {
		p := g.Prods[name]
		if p.Choice == nil {
			continue
		}
		inValueFree := p.Attrs.Has(peg.AttrVoid) || p.Attrs.Has(peg.AttrText)
		p.Choice = peg.Rewrite(p.Choice, func(e peg.Expr) peg.Expr {
			switch e := e.(type) {
			case *peg.Capture:
				if c, ok := e.Expr.(*peg.Choice); ok {
					e.Expr = mergeChoice(c, rep)
				}
			case *peg.Choice:
				if inValueFree {
					return mergeChoice(e, rep)
				}
			}
			return e
		}).(*peg.Choice)
		if inValueFree {
			p.Choice = mergeChoice(p.Choice, rep)
		}
	}
}

func mergeChoice(c *peg.Choice, rep *Report) *peg.Choice {
	if len(c.Alts) < 2 {
		return c
	}
	var out []*peg.Seq
	i := 0
	for i < len(c.Alts) {
		cls, ok := singleByteAlt(c.Alts[i])
		if !ok {
			out = append(out, c.Alts[i])
			i++
			continue
		}
		merged := &peg.CharClass{Ranges: append([]peg.CharRange(nil), cls.Ranges...), Sp: c.Alts[i].Sp}
		j := i + 1
		for j < len(c.Alts) {
			next, ok := singleByteAlt(c.Alts[j])
			if !ok || next.Negated {
				break
			}
			merged.Ranges = append(merged.Ranges, next.Ranges...)
			j++
		}
		if j == i+1 {
			out = append(out, c.Alts[i])
			i++
			continue
		}
		rep.ClassesMerged += j - i - 1
		merged.Normalize()
		out = append(out, &peg.Seq{Items: []peg.Item{{Expr: merged}}, Sp: merged.Sp})
		i = j
	}
	c.Alts = out
	return c
}

// singleByteAlt recognizes an unlabeled, unbound, constructor-free
// alternative consisting of exactly one one-byte literal or one
// non-negated character class, returning it as a class.
func singleByteAlt(a *peg.Seq) (*peg.CharClass, bool) {
	if a.Label != "" || a.Ctor != "" || len(a.Items) != 1 || a.Items[0].Bind != "" {
		return nil, false
	}
	switch e := a.Items[0].Expr.(type) {
	case *peg.Literal:
		if len(e.Text) == 1 {
			return &peg.CharClass{Ranges: []peg.CharRange{{Lo: e.Text[0], Hi: e.Text[0]}}}, true
		}
	case *peg.CharClass:
		if !e.Negated {
			return e, true
		}
	}
	return nil, false
}

// -------------------------------------------------------------- dead code

// deadCode removes alternatives that can never be tried (everything after
// an alternative that always succeeds without predicates) and productions
// unreachable from the root.
func deadCode(g *peg.Grammar, rep *Report) {
	for _, name := range g.Order {
		p := g.Prods[name]
		if p.Choice == nil {
			continue
		}
		p.Choice = peg.Rewrite(p.Choice, func(e peg.Expr) peg.Expr {
			c, ok := e.(*peg.Choice)
			if !ok {
				return e
			}
			for i, alt := range c.Alts {
				if i == len(c.Alts)-1 {
					break
				}
				if alwaysSucceeds(alt) {
					rep.DeadAlternatives += len(c.Alts) - i - 1
					c.Alts = c.Alts[:i+1]
					break
				}
			}
			return c
		}).(*peg.Choice)
	}
	// Unreachable productions, recomputed after alternative removal.
	reachable := analysis.Reachable(g)
	for _, name := range append([]string(nil), g.Order...) {
		if !reachable[name] {
			g.Remove(name)
			rep.DeadProductions++
		}
	}
}

// alwaysSucceeds conservatively reports whether an alternative matches at
// every position (so later alternatives are unreachable). Only trivially
// empty shapes qualify.
func alwaysSucceeds(s *peg.Seq) bool {
	for _, it := range s.Items {
		switch e := it.Expr.(type) {
		case *peg.Empty:
		case *peg.Optional, *peg.Repeat:
			if r, ok := e.(*peg.Repeat); ok && r.Min > 0 {
				return false
			}
			// e? and e* succeed for any input.
		default:
			return false
		}
	}
	return true
}

// ---------------------------------------------------------- mark transient

// markTransient marks productions whose memoization cannot pay for itself:
// those referenced from at most one site (they can still be re-invoked at
// the same position only via backtracking through that one site, which the
// memo table would serve — but the hit rate is too low to matter, the
// paper's key observation), and those cheaper to re-parse than to probe.
// `memo` pins a production; text/void lexical workhorses referenced from
// many sites stay memoized.
func markTransient(g *peg.Grammar, rep *Report) {
	a := analysis.Analyze(g)
	for _, name := range g.Order {
		p := g.Prods[name]
		if p.Attrs.Has(peg.AttrMemo) || p.Attrs.Has(peg.AttrTransient) {
			continue
		}
		single := a.RefCount[name] <= 1
		cheap := a.Cost[name] <= transientCost && !a.Recursive[name]
		if single || cheap {
			p.Attrs |= peg.AttrTransient
			rep.MarkedTransient++
		}
	}
}
