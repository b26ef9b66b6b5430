package analysis

import (
	"math/bits"

	"modpeg/internal/peg"
)

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
func (a *Analysis) BacktrackPrefixes() map[string]bool {
	// The transitive closure of the leftmost-call graph, as bitsets over
	// production IDs. A production's closure is its whole component's:
	// what any member left-calls, plus those calls' closures (a call
	// inside the component adds its own closure to itself, a no-op).
	// Components complete callees first, so one pass in that order
	// builds them all.
	comp, order := sccs(a.left)
	words := (len(a.names) + 63) / 64
	closures := make([]uint64, (len(a.names)+1)*words)
	closure := func(v int) []uint64 { return closures[comp[v]*words : (comp[v]+1)*words] }
	add := func(set []uint64, v int) {
		set[v/64] |= 1 << (v % 64)
		for i, w := range closure(v) {
			set[i] |= w
		}
	}
	for _, v := range order {
		for _, w := range a.left[v] {
			add(closure(v), w)
		}
	}
	has := func(set []uint64, v int) bool { return set[v/64]&(1<<(v%64)) != 0 }

	out := map[string]bool{}
	var group []peg.Expr
	var frontiers []uint64
	var calls, shared []int
	for _, name := range a.Grammar.Order {
		prod := a.Grammar.Prods[name]
		if !a.Reachable[name] || prod.Choice == nil {
			continue
		}
		peg.Walk(prod.Choice, func(e peg.Expr) {
			group = group[:0]
			switch e := e.(type) {
			case *peg.Choice:
				for _, alt := range e.Alts {
					group = append(group, alt)
				}
			case *peg.Seq:
				// Items up to and including the first non-nullable one
				// all start at the sequence's own position.
				for _, it := range e.Items {
					group = append(group, it.Expr)
					if !a.exprNullable(it.Expr) {
						break
					}
				}
			case *peg.LeftRec:
				for _, s := range e.Suffixes {
					group = append(group, s)
				}
			}
			if len(group) < 2 {
				return
			}
			// A competitor's leftmost frontier: the productions its
			// expression can call before consuming input, plus everything
			// those can left-call in turn.
			frontiers = append(frontiers[:0], make([]uint64, len(group)*words)...)
			for i, x := range group {
				calls = a.leftCalls(x, calls[:0])
				for _, v := range calls {
					add(frontiers[i*words:(i+1)*words], v)
				}
			}
			for i := range group {
				for j := i + 1; j < len(group); j++ {
					shared = shared[:0]
					for k := 0; k < words; k++ {
						for w := frontiers[i*words+k] & frontiers[j*words+k]; w != 0; w &= w - 1 {
							shared = append(shared, k*64+bits.TrailingZeros64(w))
						}
					}
					// Keep each shared production unless another one sits
					// strictly above it on the leftmost frontier.
					for _, p := range shared {
						dominated := false
						for _, q := range shared {
							if q != p && has(closure(q), p) && !has(closure(p), q) {
								dominated = true
								break
							}
						}
						setIf(out, a.names[p], !dominated)
					}
				}
			}
		})
	}
	return out
}
