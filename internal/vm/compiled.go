package vm

// Closure-threaded compiled engine. Compile, when Options.Compiled is
// set, lowers the optimized node tree a second time: every node becomes
// a specialized Go closure of type opFunc, with its constant data
// (literal text, class bitmaps, dispatch tables, memo columns) captured
// in the closure environment. Execution then threads direct indirect
// calls instead of walking a type switch per node — the same
// interpretation the paper's generated parser compiles to Go source,
// available at runtime with no go toolchain (which is what lets the
// registry's hot-reloaded grammars opt in; see internal/registry).
//
// The closures run over the same Parser a node-tree interpretation
// uses: the same memo tables and arenas, the same examined-region
// watermarks (so incremental Document.Apply works unchanged), the same
// governance edges (fail polls the clock, memoStore charges the
// budget), and the same failure records — byte-identical error text is
// a tested invariant (internal/conformance's compiled lane,
// FuzzCompiledParse). Event hooks are the one seam the closures do not
// carry: a parse with a hook installed (trace, profiler) falls back to
// the node-tree interpreter, which every compiled program retains.

import (
	"math/bits"
	"strings"

	"modpeg/internal/analysis"
	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// opFunc is one compiled parsing expression: evaluate at pos, return
// the end position, the semantic value, and success. The contract is
// exactly eval's (interp.go) — the two lowerings of a node must be
// observationally identical, stats and failure records included.
type opFunc func(ps *Parser, pos int) (int, ast.Value, bool)

// compiledProgram is the closure form of a Program's productions.
type compiledProgram struct {
	// prods holds one entry closure per production, indexed like
	// Program.prods. nCall closures resolve through this slice at parse
	// time, which is what ties the mutual recursion: the slice is
	// filled after every call site has already captured it.
	prods []opFunc
	root  opFunc
}

// compileClosures lowers every production body of p into closures.
// Called at the end of Compile, after p.prods is fully built.
//
// Productions compile callees-first (reverse postorder over the call
// graph) so that most nCall sites can capture the callee's finished
// entry closure directly instead of a trampoline through the prods
// slice — only calls that close a cycle keep the indirection.
func compileClosures(p *Program) *compiledProgram {
	cp := &compiledProgram{prods: make([]opFunc, len(p.prods))}
	cc := &closureCompiler{prog: p, code: cp}
	for _, i := range calleeOrder(p) {
		cp.prods[i] = cc.compileProd(i)
	}
	cp.root = cp.prods[p.root]
	return cp
}

// calleeOrder returns production indices in an order that compiles
// callees before callers wherever the call graph allows (postorder of
// a depth-first walk from every production; back edges — recursion —
// are the only calls left unresolved when their caller compiles).
func calleeOrder(p *Program) []int {
	order := make([]int, 0, len(p.prods))
	state := make([]uint8, len(p.prods)) // 0 new, 1 visiting, 2 done
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		var walk func(n node)
		walk = func(n node) {
			switch n := n.(type) {
			case nCall:
				visit(n.prod)
			case *nCapture:
				walk(n.body)
			case *nAnd:
				walk(n.body)
			case *nNot:
				walk(n.body)
			case *nOpt:
				walk(n.body)
			case *nRepeat:
				walk(n.body)
			case *nSeq:
				for i := range n.items {
					walk(n.items[i].n)
				}
			case *nChoice:
				for i := range n.alts {
					walk(n.alts[i].n)
				}
			case *nLeftRec:
				walk(n.seed)
				for i := range n.suffixes {
					walk(&n.suffixes[i])
				}
			}
		}
		walk(p.prods[i].body)
		state[i] = 2
		order = append(order, i)
	}
	for i := range p.prods {
		visit(i)
	}
	return order
}

type closureCompiler struct {
	prog *Program
	code *compiledProgram
}

// compileProd builds the production-entry closure: parseProd
// (interp.go) minus the hook calls, with the memo layout specialized at
// compile time. The chunked probe is open-coded in the closure — the
// hottest load in a packrat parse should not pay a call or a layout
// branch per probe.
func (cc *closureCompiler) compileProd(i int) opFunc {
	info := &cc.prog.prods[i]
	doDispatch := cc.prog.opts.Dispatch && info.firstOK
	first := info.first
	display := info.display
	kind := info.kind
	col := info.memoCol

	if col < 0 {
		if op := cc.fusedTransient(info); op != nil {
			return op
		}
	}
	body := cc.compileNode(info.body)

	if col < 0 {
		// Transient production: no memo table involvement, and no
		// examined-region framing either — the frame only exists to
		// compute a memo column's lookahead watermark, and a transient
		// invocation's extent folds into the enclosing memoized frame
		// through note's running max. Call accounting and the depth
		// budget stay: governance must observe the same edges in both
		// lowerings.
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			if doDispatch {
				ps.note(pos + 1)
				if pos >= len(ps.in) || !first.Has(ps.in[pos]) {
					ps.stats.DispatchSkips++
					failQuick(ps, pos, display)
					return 0, nil, false
				}
			}
			ps.stats.Calls++
			ps.depth++
			if ps.depth > ps.maxDepth {
				panic(&LimitError{Kind: LimitDepth, Limit: int64(ps.maxDepth),
					Actual: int64(ps.depth), Pos: pos})
			}
			end, val, ok := body(ps, pos)
			ps.depth--
			if !ok {
				failQuick(ps, pos, display)
				return 0, nil, false
			}
			// fixValue, open-coded on the compile-time kind: transient
			// calls are the engine's hottest entry and the switch would
			// otherwise run 87 times for every memoized entry's 15.
			switch kind {
			case valText:
				val = ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end)))
			case valVoid:
				val = nil
			default:
				if n, isNode := val.(*ast.Node); isNode && n != nil && !n.Span.IsValid() {
					n.Span = text.NewSpan(text.Pos(pos), text.Pos(end))
				}
			}
			if end > ps.stats.MaxPos {
				ps.stats.MaxPos = end
			}
			return end, val, true
		}
	}

	chunked := cc.prog.opts.ChunkedMemo
	return func(ps *Parser, pos int) (int, ast.Value, bool) {
		if doDispatch {
			ps.note(pos + 1)
			if pos >= len(ps.in) || !first.Has(ps.in[pos]) {
				ps.stats.DispatchSkips++
				failQuick(ps, pos, display)
				return 0, nil, false
			}
		}
		var e memoEntry
		hit := false
		if chunked {
			if row := ps.chunks[pos]; row != nil {
				if chunk := row[col/chunkSize]; chunk != nil {
					e = chunk[col%chunkSize]
					hit = e.state != memoEmpty
				}
			}
		} else {
			e, hit = ps.memoMap[int64(pos)*int64(ps.prog.memoCols)+int64(col)]
		}
		if hit {
			ps.stats.MemoHits++
			if e.gen != ps.gen {
				ps.stats.MemoReused++
			}
			end := pos + int(e.len)
			ps.note(end + int(ps.prodLook[col]))
			if e.state == memoFail {
				failQuick(ps, pos, display)
				return 0, nil, false
			}
			return end, e.val, true
		}
		ps.stats.MemoMisses++

		end, val, examined, ok := enterProd(ps, body, pos)
		if ok {
			val = fixValue(ps, kind, val, pos, end)
		}
		// Record the lookahead watermark and memoize the outcome, exactly
		// as parseProd does.
		matchEnd := pos
		if ok {
			matchEnd = end
		}
		if extra := examined - matchEnd; extra > int(ps.prodLook[col]) {
			ps.prodLook[col] = int32(extra)
		}
		if !ps.shed {
			me := memoEntry{state: memoFail, gen: ps.gen}
			if ok {
				me = memoEntry{state: memoOK, gen: ps.gen, len: int32(end - pos), val: val}
			}
			if ps.memoStore(pos, col, me) {
				ps.stats.MemoStores++
			}
		}
		if !ok {
			failQuick(ps, pos, display)
			return 0, nil, false
		}
		if end > ps.stats.MaxPos {
			ps.stats.MaxPos = end
		}
		return end, val, true
	}
}

// enterProd runs a production body under the call-accounting and
// examined-region framing parseProd maintains: Calls and depth are
// charged (the depth budget panics on breach, contained by the entry
// points), and the invocation's own examined extent is returned for
// the caller's watermark bookkeeping.
func enterProd(ps *Parser, body opFunc, pos int) (int, ast.Value, int, bool) {
	ps.stats.Calls++
	ps.depth++
	if ps.depth > ps.maxDepth {
		panic(&LimitError{Kind: LimitDepth, Limit: int64(ps.maxDepth),
			Actual: int64(ps.depth), Pos: pos})
	}
	saveExamined := ps.examined
	ps.examined = pos
	end, val, ok := body(ps, pos)
	examined := ps.examined
	if saveExamined > examined {
		ps.examined = saveExamined
	}
	ps.depth--
	return end, val, examined, ok
}

// fixValue applies a production's value rule to its body's raw value —
// the same specialization parseProd performs on success.
func fixValue(ps *Parser, kind valueKind, val ast.Value, pos, end int) ast.Value {
	switch kind {
	case valText:
		return ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end)))
	case valVoid:
		return nil
	default:
		if n, isNode := val.(*ast.Node); isNode && n != nil && !n.Span.IsValid() {
			n.Span = text.NewSpan(text.Pos(pos), text.Pos(end))
		}
		return val
	}
}

// cItem is a compiled sequence item.
type cItem struct {
	op    opFunc
	bound bool
	role  itemRole
}

// cAlt is a compiled choice alternative (the fallback path for choices
// too wide for a pruning-table mask word).
type cAlt struct {
	op         opFunc
	dispatchOK bool
	first      analysis.ByteSet
	expect     string
}

// compileNode lowers one node into its closure. Every case mirrors the
// matching eval case in interp.go — same notes, same failure records,
// same stats — with the node's constant data folded into the closure.
func (cc *closureCompiler) compileNode(n node) opFunc {
	switch n := n.(type) {
	case nEmpty:
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			return pos, nil, true
		}

	case nLit:
		display := n.display
		if len(n.text) == 1 {
			// Single-byte literals (punctuation, operators) dominate real
			// grammars; one byte compare beats a string compare.
			b := n.text[0]
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				ps.note(pos + 1)
				if pos >= len(ps.in) || ps.in[pos] != b {
					failQuick(ps, pos, display)
					return 0, nil, false
				}
				return pos + 1, nil, true
			}
		}
		if len(n.text) == 2 {
			// Two-byte literals (==, &&,++, //) are the next most common
			// band; two compares beat the memeq call either way.
			b0, b1 := n.text[0], n.text[1]
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				ps.note(pos + 2)
				if pos+2 > len(ps.in) || ps.in[pos] != b0 || ps.in[pos+1] != b1 {
					failQuick(ps, pos, display)
					return 0, nil, false
				}
				return pos + 2, nil, true
			}
		}
		txt := n.text
		b0 := n.text[0]
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			end := pos + len(txt)
			ps.note(end)
			// Checking the first byte before the full compare skips the
			// memeq call on the common keyword-probe miss.
			if end > len(ps.in) || ps.in[pos] != b0 || ps.in[pos:end] != txt {
				failQuick(ps, pos, display)
				return 0, nil, false
			}
			return end, nil, true
		}

	case *nClass:
		set := n.set
		if n.void {
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				ps.note(pos + 1)
				if pos >= len(ps.in) || !set.Has(ps.in[pos]) {
					failQuick(ps, pos, "character class")
					return 0, nil, false
				}
				return pos + 1, nil, true
			}
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			ps.note(pos + 1)
			if pos >= len(ps.in) || !set.Has(ps.in[pos]) {
				failQuick(ps, pos, "character class")
				return 0, nil, false
			}
			return pos + 1, ps.values.newToken(ps.in[pos:pos+1], text.NewSpan(text.Pos(pos), text.Pos(pos+1))), true
		}

	case *nScanClass:
		set, min := n.set, n.min
		if n.stopOK {
			stop := n.stop
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				cur := pos
				if i := strings.IndexByte(ps.in[cur:], stop); i >= 0 {
					cur += i
				} else {
					cur = len(ps.in)
				}
				ps.note(cur + 1)
				failQuick(ps, cur, "character class")
				if cur-pos < min {
					return 0, nil, false
				}
				return cur, nil, true
			}
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			cur := pos
			for cur < len(ps.in) && set.Has(ps.in[cur]) {
				cur++
			}
			ps.note(cur + 1)
			failQuick(ps, cur, "character class")
			if cur-pos < min {
				return 0, nil, false
			}
			return cur, nil, true
		}

	case *nScanLit:
		txt, display, min := n.text, n.display, n.min
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			cur := pos
			count := 0
			for {
				end := cur + len(txt)
				ps.note(end)
				if end > len(ps.in) || ps.in[cur:end] != txt {
					failQuick(ps, cur, display)
					break
				}
				cur = end
				count++
			}
			if count < min {
				return 0, nil, false
			}
			return cur, nil, true
		}

	case nAny:
		if n.void {
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				ps.note(pos + 1)
				if pos >= len(ps.in) {
					failQuick(ps, pos, "any character")
					return 0, nil, false
				}
				return pos + 1, nil, true
			}
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			ps.note(pos + 1)
			if pos >= len(ps.in) {
				failQuick(ps, pos, "any character")
				return 0, nil, false
			}
			return pos + 1, ps.values.newToken(ps.in[pos:pos+1], text.NewSpan(text.Pos(pos), text.Pos(pos+1))), true
		}

	case nCall:
		// Callee already compiled (calleeOrder): the call site IS the
		// callee's entry closure, no trampoline. Only cycle-closing
		// calls still resolve through the prods slice at parse time.
		if op := cc.code.prods[n.prod]; op != nil {
			return op
		}
		cp, idx := cc.code, n.prod
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			return cp.prods[idx](ps, pos)
		}

	case *nCapture:
		body := cc.compileNode(n.body)
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			end, _, ok := body(ps, pos)
			if !ok {
				return 0, nil, false
			}
			return end, ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end))), true
		}

	case *nAnd:
		body := cc.compileNode(n.body)
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			ps.quiet++
			_, _, ok := body(ps, pos)
			ps.quiet--
			if !ok {
				failQuick(ps, pos, "lookahead")
				return 0, nil, false
			}
			return pos, nil, true
		}

	case *nNot:
		body := cc.compileNode(n.body)
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			ps.quiet++
			_, _, ok := body(ps, pos)
			ps.quiet--
			if ok {
				failQuick(ps, pos, "negative lookahead")
				return 0, nil, false
			}
			return pos, nil, true
		}

	case *nOpt:
		body := cc.compileNode(n.body)
		if n.void {
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				end, _, ok := body(ps, pos)
				if !ok {
					return pos, nil, true
				}
				return end, nil, true
			}
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			end, val, ok := body(ps, pos)
			if !ok {
				return pos, nil, true
			}
			return end, val, true
		}

	case *nRepeat:
		body := cc.compileNode(n.body)
		min := n.min
		if n.void {
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				cur := pos
				count := 0
				for {
					end, _, ok := body(ps, cur)
					if !ok {
						break
					}
					cur = end
					count++
				}
				if count < min {
					return 0, nil, false
				}
				return cur, nil, true
			}
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			cur := pos
			count := 0
			base := len(ps.scratch)
			for {
				end, val, ok := body(ps, cur)
				if !ok {
					break
				}
				cur = end
				count++
				if val != nil {
					ps.scratch = append(ps.scratch, val)
				}
			}
			if count < min {
				ps.scratch = ps.scratch[:base]
				return 0, nil, false
			}
			list := ast.List(ps.values.copyVals(ps.scratch[base:]))
			ps.scratch = ps.scratch[:base]
			if list == nil {
				list = ast.List{}
			}
			return cur, list, true
		}

	case *nSeq:
		return cc.compileSeq(n)

	case *nChoice:
		alts := make([]cAlt, len(n.alts))
		ops := make([]opFunc, len(n.alts))
		for i := range n.alts {
			alts[i] = cAlt{
				op:         cc.compileNode(n.alts[i].n),
				dispatchOK: n.alts[i].dispatchOK,
				first:      n.alts[i].first,
				expect:     n.alts[i].expect,
			}
			ops[i] = alts[i].op
		}
		if n.tbl != nil {
			tbl := n.tbl
			return func(ps *Parser, pos int) (int, ast.Value, bool) {
				ps.note(pos + 1)
				mask := tbl.eof
				if pos < len(ps.in) {
					mask = tbl.masks[ps.in[pos]]
				}
				skipped := mask ^ tbl.all
				if skipped != 0 {
					ps.stats.DispatchSkips += bits.OnesCount64(skipped)
				}
				for m := mask; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					if end, val, ok := ops[i](ps, pos); ok {
						ps.prune(pos, tbl, skipped&(1<<i-1))
						return end, val, true
					}
				}
				ps.prune(pos, tbl, skipped)
				return 0, nil, false
			}
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			var b byte
			haveByte := pos < len(ps.in)
			if haveByte {
				b = ps.in[pos]
			}
			for i := range alts {
				alt := &alts[i]
				if alt.dispatchOK {
					ps.note(pos + 1)
					if !haveByte || !alt.first.Has(b) {
						ps.stats.DispatchSkips++
						failQuick(ps, pos, alt.expect)
						continue
					}
				}
				if end, val, ok := alt.op(ps, pos); ok {
					return end, val, true
				}
			}
			return 0, nil, false
		}

	case *nLeftRec:
		seed := cc.compileNode(n.seed)
		type cSuffix struct {
			items func(ps *Parser, pos int) (int, int, bool)
			ctor  string
			pre   suffixPre
		}
		suffixes := make([]cSuffix, len(n.suffixes))
		for i := range n.suffixes {
			s := &n.suffixes[i]
			var pre suffixPre
			if len(s.items) > 0 {
				pre = cc.preOf(s.items[0].n)
			}
			suffixes[i] = cSuffix{items: cc.compileSeqItems(s), ctor: s.ctor, pre: pre}
		}
		void := n.void
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			end, acc, ok := seed(ps, pos)
			if !ok {
				return 0, nil, false
			}
		grow:
			for {
				for i := range suffixes {
					s := &suffixes[i]
					// First-byte pre-check: every growth step probes
					// every suffix, and in an expression tower almost
					// all probes fail on the operator byte. The check
					// reproduces exactly the records the suffix's first
					// item would emit before declining the call.
					if s.pre.ok {
						ps.note(end + s.pre.note)
						if end >= len(ps.in) || !s.pre.set.Has(ps.in[end]) {
							if s.pre.skip {
								ps.stats.DispatchSkips++
							}
							failQuick(ps, end, s.pre.display)
							continue
						}
					}
					nend, base, ok := s.items(ps, end)
					if !ok {
						continue
					}
					acc = ps.foldLeft(acc, s.ctor, base, pos, nend)
					ps.scratch = ps.scratch[:base]
					end = nend
					continue grow
				}
				break
			}
			if void {
				return end, nil, true
			}
			return end, acc, true
		}

	default:
		panic("vm: unknown node in closure compiler")
	}
}

// suffixPre is the first-byte fast check of a left-recursion suffix:
// enough constant data to reproduce, without entering the suffix,
// exactly the records (examined note, dispatch-skip count, failure)
// its first item would emit when the next byte cannot start it.
type suffixPre struct {
	ok      bool
	set     analysis.ByteSet
	display string
	skip    bool // models a dispatch edge, so count the skip
	note    int  // examined extent of the probe (literal length or 1)
}

// preOf derives the pre-check for a suffix's first item. Only shapes
// whose rejection path is a pure function of the next byte qualify;
// anything else returns a zero suffixPre and the suffix is entered
// unconditionally.
func (cc *closureCompiler) preOf(n node) suffixPre {
	switch n := n.(type) {
	case nLit:
		var s analysis.ByteSet
		s.Add(n.text[0])
		return suffixPre{ok: true, set: s, display: n.display, note: len(n.text)}
	case *nClass:
		return suffixPre{ok: true, set: n.set, display: "character class", note: 1}
	case nCall:
		info := &cc.prog.prods[n.prod]
		if cc.prog.opts.Dispatch && info.firstOK {
			return suffixPre{ok: true, set: info.first, display: info.display, skip: true, note: 1}
		}
	}
	return suffixPre{}
}

// fusedTransient builds a production-entry closure with the body's
// top-level node embedded, for the shapes that dominate call counts in
// real grammars — void token sequences (keywords, punctuation),
// dispatch-table choices (single-level alternations), and void
// repetition (spacing). One closure call per production call instead
// of two; returns nil when the body shape does not qualify and the
// generic transient entry applies.
func (cc *closureCompiler) fusedTransient(info *prodInfo) opFunc {
	doDispatch := cc.prog.opts.Dispatch && info.firstOK
	first := info.first
	display := info.display
	kind := info.kind

	switch b := info.body.(type) {
	case *nSeq:
		if !b.void || kind != valVoid {
			return nil
		}
		items := make([]opFunc, len(b.items))
		for i := range b.items {
			items[i] = cc.compileNode(b.items[i].n)
		}
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			if doDispatch {
				ps.note(pos + 1)
				if pos >= len(ps.in) || !first.Has(ps.in[pos]) {
					ps.stats.DispatchSkips++
					failQuick(ps, pos, display)
					return 0, nil, false
				}
			}
			ps.stats.Calls++
			ps.depth++
			if ps.depth > ps.maxDepth {
				panic(&LimitError{Kind: LimitDepth, Limit: int64(ps.maxDepth),
					Actual: int64(ps.depth), Pos: pos})
			}
			cur := pos
			for i := range items {
				end, _, ok := items[i](ps, cur)
				if !ok {
					ps.depth--
					failQuick(ps, pos, display)
					return 0, nil, false
				}
				cur = end
			}
			ps.depth--
			if cur > ps.stats.MaxPos {
				ps.stats.MaxPos = cur
			}
			return cur, nil, true
		}

	case *nChoice:
		if b.tbl == nil {
			return nil
		}
		ops := make([]opFunc, len(b.alts))
		for i := range b.alts {
			ops[i] = cc.compileNode(b.alts[i].n)
		}
		tbl := b.tbl
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			if doDispatch {
				ps.note(pos + 1)
				if pos >= len(ps.in) || !first.Has(ps.in[pos]) {
					ps.stats.DispatchSkips++
					failQuick(ps, pos, display)
					return 0, nil, false
				}
			}
			ps.stats.Calls++
			ps.depth++
			if ps.depth > ps.maxDepth {
				panic(&LimitError{Kind: LimitDepth, Limit: int64(ps.maxDepth),
					Actual: int64(ps.depth), Pos: pos})
			}
			ps.note(pos + 1)
			mask := tbl.eof
			if pos < len(ps.in) {
				mask = tbl.masks[ps.in[pos]]
			}
			skipped := mask ^ tbl.all
			if skipped != 0 {
				ps.stats.DispatchSkips += bits.OnesCount64(skipped)
			}
			for m := mask; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				if end, val, ok := ops[i](ps, pos); ok {
					ps.prune(pos, tbl, skipped&(1<<i-1))
					ps.depth--
					switch kind {
					case valText:
						val = ps.values.newToken(ps.in[pos:end], text.NewSpan(text.Pos(pos), text.Pos(end)))
					case valVoid:
						val = nil
					default:
						if n, isNode := val.(*ast.Node); isNode && n != nil && !n.Span.IsValid() {
							n.Span = text.NewSpan(text.Pos(pos), text.Pos(end))
						}
					}
					if end > ps.stats.MaxPos {
						ps.stats.MaxPos = end
					}
					return end, val, true
				}
			}
			ps.prune(pos, tbl, skipped)
			ps.depth--
			failQuick(ps, pos, display)
			return 0, nil, false
		}

	case *nRepeat:
		if !b.void || kind != valVoid {
			return nil
		}
		rbody := cc.compileNode(b.body)
		min := b.min
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			if doDispatch {
				ps.note(pos + 1)
				if pos >= len(ps.in) || !first.Has(ps.in[pos]) {
					ps.stats.DispatchSkips++
					failQuick(ps, pos, display)
					return 0, nil, false
				}
			}
			ps.stats.Calls++
			ps.depth++
			if ps.depth > ps.maxDepth {
				panic(&LimitError{Kind: LimitDepth, Limit: int64(ps.maxDepth),
					Actual: int64(ps.depth), Pos: pos})
			}
			cur := pos
			count := 0
			for {
				end, _, ok := rbody(ps, cur)
				if !ok {
					break
				}
				cur = end
				count++
			}
			ps.depth--
			if count < min {
				failQuick(ps, pos, display)
				return 0, nil, false
			}
			if cur > ps.stats.MaxPos {
				ps.stats.MaxPos = cur
			}
			return cur, nil, true
		}
	}
	return nil
}

// compileSeq lowers a sequence node, mirroring evalSeq + seqValue. The
// item loop is embedded in the value-shaping closure rather than a
// nested closure: a sequence is the most common body shape, and the
// extra indirect call per evaluation is measurable on large corpora.
func (cc *closureCompiler) compileSeq(n *nSeq) opFunc {
	items := make([]cItem, len(n.items))
	for i := range n.items {
		items[i] = cItem{
			op:    cc.compileNode(n.items[i].n),
			bound: n.items[i].bound,
			role:  n.items[i].role,
		}
	}
	if n.void {
		// No value ever pushed: a bare matching loop suffices.
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			cur := pos
			for i := range items {
				end, _, ok := items[i].op(ps, cur)
				if !ok {
					return 0, nil, false
				}
				cur = end
			}
			return cur, nil, true
		}
	}
	splice := n.splice
	pushBound := n.ctor != "" && n.hasBind
	runItems := func(ps *Parser, pos int) (int, int, bool) {
		base := len(ps.scratch)
		cur := pos
		for i := range items {
			it := &items[i]
			end, val, ok := it.op(ps, cur)
			if !ok {
				ps.scratch = ps.scratch[:base]
				return 0, base, false
			}
			cur = end
			if splice {
				switch it.role {
				case roleHead:
					if val != nil {
						ps.scratch = append(ps.scratch, val)
					}
				case roleTail:
					if l, isList := val.(ast.List); isList {
						ps.scratch = append(ps.scratch, l...)
					}
				}
				continue
			}
			if pushBound {
				if it.bound {
					ps.scratch = append(ps.scratch, val)
				}
			} else if val != nil {
				ps.scratch = append(ps.scratch, val)
			}
		}
		return cur, base, true
	}
	if n.splice {
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			end, base, ok := runItems(ps, pos)
			if !ok {
				return 0, nil, false
			}
			out := ps.values.copyVals(ps.scratch[base:])
			ps.scratch = ps.scratch[:base]
			if out == nil {
				out = []ast.Value{}
			}
			return end, ast.List(out), true
		}
	}
	// A non-splice sequence yields at most len(items) child values, so
	// short sequences (nearly all of them) can collect children in a
	// stack array instead of the interpreter's ps.scratch protocol: no
	// heap appends, no write barriers, no unwind bookkeeping on failure.
	// The children escape only on success, via one carve+copy.
	if n.ctor != "" && len(items) <= seqStackKids {
		ctor := n.ctor
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			var kids [seqStackKids]ast.Value
			nk := 0
			cur := pos
			for i := range items {
				it := &items[i]
				iend, val, ok := it.op(ps, cur)
				if !ok {
					return 0, nil, false
				}
				cur = iend
				if pushBound {
					if it.bound {
						kids[nk] = val
						nk++
					}
				} else if val != nil {
					kids[nk] = val
					nk++
				}
			}
			out := ps.values.carve(nk)
			copy(out, kids[:nk])
			v := ps.values.newNode(ctor, out,
				text.NewSpan(text.Pos(pos), text.Pos(cur)))
			return cur, v, true
		}
	}
	if n.ctor == "" && len(items) <= seqStackKids {
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			var kids [seqStackKids]ast.Value
			nk := 0
			cur := pos
			for i := range items {
				it := &items[i]
				iend, val, ok := it.op(ps, cur)
				if !ok {
					return 0, nil, false
				}
				cur = iend
				if pushBound {
					if it.bound {
						kids[nk] = val
						nk++
					}
				} else if val != nil {
					kids[nk] = val
					nk++
				}
			}
			var v ast.Value
			switch nk {
			case 0:
			case 1:
				v = kids[0]
			default:
				out := ps.values.carve(nk)
				copy(out, kids[:nk])
				v = ast.List(out)
			}
			return cur, v, true
		}
	}
	if n.ctor != "" {
		ctor := n.ctor
		return func(ps *Parser, pos int) (int, ast.Value, bool) {
			base := len(ps.scratch)
			cur := pos
			for i := range items {
				it := &items[i]
				iend, val, ok := it.op(ps, cur)
				if !ok {
					ps.scratch = ps.scratch[:base]
					return 0, nil, false
				}
				cur = iend
				if pushBound {
					if it.bound {
						ps.scratch = append(ps.scratch, val)
					}
				} else if val != nil {
					ps.scratch = append(ps.scratch, val)
				}
			}
			end := cur
			v := ps.values.newNode(ctor, ps.values.copyVals(ps.scratch[base:]),
				text.NewSpan(text.Pos(pos), text.Pos(end)))
			ps.scratch = ps.scratch[:base]
			return end, v, true
		}
	}
	return func(ps *Parser, pos int) (int, ast.Value, bool) {
		base := len(ps.scratch)
		cur := pos
		for i := range items {
			it := &items[i]
			iend, val, ok := it.op(ps, cur)
			if !ok {
				ps.scratch = ps.scratch[:base]
				return 0, nil, false
			}
			cur = iend
			if pushBound {
				if it.bound {
					ps.scratch = append(ps.scratch, val)
				}
			} else if val != nil {
				ps.scratch = append(ps.scratch, val)
			}
		}
		end := cur
		var v ast.Value
		switch vals := ps.scratch[base:]; len(vals) {
		case 0:
		case 1:
			v = vals[0]
		default:
			v = ast.List(ps.values.copyVals(vals))
		}
		ps.scratch = ps.scratch[:base]
		return end, v, true
	}
}

// seqStackKids is the item-count bound under which a compiled sequence
// collects child values in a closure-stack array rather than on
// ps.scratch. Statically knowing the arity bound is a compiled-engine
// privilege: the interpreter must run the generic scratch protocol.
const seqStackKids = 8

// compileSeqItems lowers a sequence's item matching, mirroring
// evalSeqItems: values that participate in the result are pushed onto
// the scratch stack, the caller reads ps.scratch[base:] and truncates.
func (cc *closureCompiler) compileSeqItems(n *nSeq) func(ps *Parser, pos int) (int, int, bool) {
	items := make([]cItem, len(n.items))
	for i := range n.items {
		items[i] = cItem{
			op:    cc.compileNode(n.items[i].n),
			bound: n.items[i].bound,
			role:  n.items[i].role,
		}
	}
	if n.void {
		// No value ever pushed: a bare matching loop suffices.
		return func(ps *Parser, pos int) (int, int, bool) {
			base := len(ps.scratch)
			cur := pos
			for i := range items {
				end, _, ok := items[i].op(ps, cur)
				if !ok {
					return 0, base, false
				}
				cur = end
			}
			return cur, base, true
		}
	}
	splice := n.splice
	pushBound := n.ctor != "" && n.hasBind
	return func(ps *Parser, pos int) (int, int, bool) {
		base := len(ps.scratch)
		cur := pos
		for i := range items {
			it := &items[i]
			end, val, ok := it.op(ps, cur)
			if !ok {
				ps.scratch = ps.scratch[:base]
				return 0, base, false
			}
			cur = end
			if splice {
				switch it.role {
				case roleHead:
					if val != nil {
						ps.scratch = append(ps.scratch, val)
					}
				case roleTail:
					if l, isList := val.(ast.List); isList {
						ps.scratch = append(ps.scratch, l...)
					}
				}
				continue
			}
			if pushBound {
				if it.bound {
					ps.scratch = append(ps.scratch, val)
				}
			} else if val != nil {
				ps.scratch = append(ps.scratch, val)
			}
		}
		return cur, base, true
	}
}

// failQuick is the closure lowering's failure edge: identical to
// Parser.fail, but the overwhelmingly common no-op outcome — an
// untimed parse recording a suppressed or not-farthest failure — is
// decided by an inlined guard without paying the call. Timed parses
// always take the call, because fail is a clock-polling edge.
func failQuick(ps *Parser, pos int, what string) {
	if ps.timed || (ps.quiet == 0 && pos >= ps.failPos) {
		ps.fail(pos, what)
	}
}
