package transform

// The inliner as it was before it decided from one analysis: it
// re-analysed the grammar at the start of every round and cloned every
// candidate's body before deciding whether the copy could be used. It is
// kept verbatim (names prefixed ref) as the oracle the one-analysis
// inliner must match.

import (
	"modpeg/internal/analysis"
	"modpeg/internal/peg"
)

// refInline replaces references to small, non-recursive productions with
// their bodies.
func refInline(g *peg.Grammar, rep *Report) {
	// Iterate to a fixpoint but bound the rounds to keep growth in check.
	for round := 0; round < 4; round++ {
		a := analysis.Analyze(g)
		candidates := map[string]*peg.Production{}
		for _, name := range g.Order {
			p := g.Prods[name]
			if name == g.Root || p.Choice == nil {
				continue
			}
			if p.Attrs.Has(peg.AttrNoInline) || p.Attrs.Has(peg.AttrMemo) {
				continue
			}
			if a.Recursive[name] {
				continue
			}
			if hasLeftRec(p.Choice) {
				continue
			}
			if !p.Attrs.Has(peg.AttrInline) && a.Cost[name] > inlineCost {
				continue
			}
			candidates[name] = p
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
				body, ok := refInlineBody(a, target, nt)
				if !ok {
					return e
				}
				changed++
				rep.Inlined++
				return body
			}).(*peg.Choice)
		}
		if changed == 0 {
			return
		}
	}
}

// refInlineBody clones target's body in a form whose value semantics equal a
// reference to it; ok is false when no such form exists (void productions
// whose bodies produce values).
func refInlineBody(a *analysis.Analysis, target *peg.Production, at *peg.NonTerm) (peg.Expr, bool) {
	body := peg.CloneExpr(target.Choice).(*peg.Choice)
	// Inlined copies must not carry anchor labels (those are per-production).
	for _, alt := range body.Alts {
		alt.Label = ""
	}
	var e peg.Expr = body
	if len(body.Alts) == 1 {
		alt := body.Alts[0]
		if alt.Ctor == "" && len(alt.Items) == 1 && alt.Items[0].Bind == "" {
			e = alt.Items[0].Expr
		} else if alt.Ctor == "" && !alt.HasBindings() && len(alt.Items) > 1 {
			e = alt
		}
	}
	switch {
	case target.Attrs.Has(peg.AttrText):
		return &peg.Capture{Expr: e, Sp: at.Sp}, true
	case target.Attrs.Has(peg.AttrVoid):
		// A void production produces nil. Inlining its body would expose
		// the body's values, so only value-free bodies are inlinable.
		if a.ExprValued(e) {
			return nil, false
		}
		return e, true
	default:
		return e, true
	}
}
