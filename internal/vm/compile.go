// Package vm compiles composed grammars into executable parser programs
// and runs them with three interchangeable engine configurations:
//
//   - plain backtracking recursive descent (no memoization) — the textbook
//     PEG interpreter, exponential in the worst case;
//   - naive packrat — every production memoized at every position;
//   - optimized packrat — the paper's engine: transient productions skip
//     the memo table, memo entries live in per-position chunks allocated
//     lazily, and choices and calls dispatch on the next input byte.
//
// All three produce identical semantic values (a property the test suite
// checks by construction on every bundled grammar), which is what makes
// the paper's time/space comparisons meaningful.
//
// # Value rules
//
// See internal/peg's package documentation. The compiler additionally
// performs value specialization: expressions in *void context* (inside
// captures and predicates, and the bodies of void/text productions) are
// compiled to value-free code that allocates nothing.
package vm

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"modpeg/internal/analysis"
	"modpeg/internal/peg"
)

// Options selects the engine configuration. The zero value is the plain
// backtracking interpreter.
type Options struct {
	// Memoize enables the packrat memo table.
	Memoize bool
	// MemoEverything ignores transient attributes and memoizes every
	// production (the naive packrat baseline). Implies Memoize.
	MemoEverything bool
	// ChunkedMemo lays memo entries out in per-position chunks; otherwise
	// a hash map keyed by (position, production) is used.
	ChunkedMemo bool
	// Dispatch enables first-byte dispatch for choices and calls. With it,
	// every choice of up to 64 alternatives gets a 256-entry byte→bitmask
	// pruning table built from the first sets of its alternatives, so one
	// table probe selects the alternatives worth trying (nullable
	// alternatives are never pruned — the nullable-prefix fallback).
	Dispatch bool
	// ScanFusion fuses void-context repetitions of a character class or a
	// literal into scan nodes that consume a whole run in one interpreter
	// frame — the byte-level hot path for whitespace, identifiers, numbers,
	// comments, and string bodies.
	ScanFusion bool
	// Compiled additionally lowers the program to the closure-threaded
	// compiled engine (compiled.go): every node becomes a specialized
	// Go closure, eliminating the per-node interpretation dispatch.
	// The node tree is kept alongside — parses with an event hook
	// installed (trace, profiler) run it instead, so observability
	// works unchanged. Semantics, error text, and statistics are
	// identical to interpreting the same program.
	Compiled bool
}

// Optimized returns the full paper engine configuration.
func Optimized() Options {
	return Options{Memoize: true, ChunkedMemo: true, Dispatch: true, ScanFusion: true}
}

// NaivePackrat returns the memoize-everything baseline (hash-map memo, no
// dispatch), mirroring the straightforward packrat implementations the
// paper compares against.
func NaivePackrat() Options {
	return Options{Memoize: true, MemoEverything: true}
}

// Backtracking returns the plain recursive-descent configuration.
func Backtracking() Options { return Options{} }

// CompiledEngine returns the closure-threaded compiled engine
// configuration: the full optimized engine lowered to specialized
// closures at Compile time, with the memo table narrowed to the
// statically-derived backtrack-prefix set (analysis.BacktrackPrefixes).
// The policy is static, which is what lets registry uploads and
// `modpeg serve` compile cold. This is the production fast path: the
// paper's generated-parser speed without running the go toolchain, so
// it is available to runtime-loaded grammars too.
func CompiledEngine() Options {
	o := Optimized()
	o.Compiled = true
	return o
}

// String names the configuration for benchmark output.
func (o Options) String() string {
	suffix := ""
	if o.Compiled {
		suffix = "+compiled"
	}
	switch {
	case !o.Memoize:
		return "backtracking" + suffix
	case o.MemoEverything && !o.ChunkedMemo:
		return "naive-packrat" + suffix
	default:
		s := "packrat"
		if o.ChunkedMemo {
			s += "+chunks"
		}
		if o.Dispatch {
			s += "+dispatch"
		}
		if o.ScanFusion {
			s += "+scan"
		}
		if o.MemoEverything {
			s += "+memoall"
		}
		return s + suffix
	}
}

// Program is a compiled grammar ready for execution. It is read-only
// after Compile, so one Program may serve any number of goroutines
// concurrently (each parse works on its own Parser session).
type Program struct {
	opts  Options
	prods []prodInfo
	index map[string]int
	root  int
	// memoCols is the number of memo columns (memoized productions).
	memoCols int
	// code is the closure-threaded lowering of prods, non-nil iff the
	// program was compiled with Options.Compiled (compiled.go). Hookless
	// parses run it; hooked parses interpret prods.
	code *compiledProgram
	// pool recycles Parser sessions across Parse calls; it is the only
	// mutable (and internally synchronized) part of a compiled program.
	pool sync.Pool
	// gstats points at the per-grammar counter set this program's parses
	// feed in the metrics registry (metrics.go). Compile resolves a
	// default from the root production's module qualifier; SetLabel
	// re-points it. Atomic so SetLabel is safe against in-flight parses.
	gstats atomic.Pointer[grammarStats]
	// sampleEvery/sampleTick drive the always-on sampled profiler
	// (sample.go): every sampleEvery-th pooled checkout (counted by
	// sampleTick) borrows a profiler from profPool. sampleEvery == 0
	// (the default) disables sampling at the cost of one atomic load
	// per acquire.
	sampleEvery atomic.Int64
	sampleTick  atomic.Int64
	profPool    sync.Pool
}

type valueKind uint8

const (
	valNormal valueKind = iota
	valText             // production produces the matched text as a token
	valVoid             // production produces nil
)

type prodInfo struct {
	name     string
	display  string // short name for failure reporting
	attrs    peg.Attr
	kind     valueKind
	body     node
	memoCol  int // -1 when transient (not memoized)
	nullable bool
	// dispatch data (valid when firstOK)
	firstOK bool
	first   analysis.ByteSet
}

// Options returns the configuration the program was compiled with.
func (p *Program) Options() Options { return p.opts }

// SetLabel sets the grammar label this program's parses are counted
// under in the metrics registry's per-grammar counters (and in the
// Prometheus exporter's `grammar` label). Programs compiled for the
// same label share one counter set. Compile defaults the label to the
// root production's module qualifier; higher layers that know the
// user-facing grammar name (the facade's top module) override it.
func (p *Program) SetLabel(label string) {
	p.gstats.Store(grammarStatsFor(label))
}

// Label returns the program's current grammar label.
func (p *Program) Label() string {
	if g := p.gstats.Load(); g != nil {
		return g.label
	}
	return ""
}

// defaultGrammarLabel derives a label from the fully qualified root
// production name: its module qualifier ("calc.core.Expr" → "calc.core"),
// or the whole name when unqualified.
func defaultGrammarLabel(root string) string {
	if i := strings.LastIndexByte(root, '.'); i >= 0 {
		return root[:i]
	}
	return root
}

// MemoColumns returns the number of memoized productions.
func (p *Program) MemoColumns() int { return p.memoCols }

// NumProductions returns the number of productions compiled.
func (p *Program) NumProductions() int { return len(p.prods) }

// Compile compiles a composed, transformed grammar. The grammar must pass
// analysis.CheckTransformed (no left recursion, no nullable repetition).
func Compile(g *peg.Grammar, opts Options) (*Program, error) {
	a := analysis.Analyze(g)
	if err := a.CheckTransformed(); err != nil {
		return nil, fmt.Errorf("vm: %w", err)
	}
	if opts.MemoEverything {
		opts.Memoize = true
	}
	p := &Program{opts: opts, index: make(map[string]int, len(g.Order))}
	for i, name := range g.Order {
		p.index[name] = i
	}
	root, ok := p.index[g.Root]
	if !ok {
		return nil, fmt.Errorf("vm: root production %q not found", g.Root)
	}
	p.root = root
	p.SetLabel(defaultGrammarLabel(g.Root))

	// Memo columns come from two inputs only: the transient and memo
	// attributes the transform passes set (MemoEverything ignores
	// transient), and, for the compiled engine, a static policy: only
	// productions an ordered-choice retry can actually re-enter at the
	// same position (plus the root, whose entry memo is what lets an
	// unchanged incremental reparse return instantly) keep a column.
	// Everything else becomes a transient closure call — the closure
	// lowering shares one body closure per production, so this is
	// inlining without code growth or a depth cap.
	//
	// Columns are assigned hottest-first (by static reference count) so
	// that frequently probed productions share the first chunks of every
	// position's chunk directory — the layout half of the chunk
	// optimization.
	var keep map[string]bool
	if opts.Compiled && opts.Memoize && !opts.MemoEverything {
		keep = a.BacktrackPrefixes()
	}
	memoized := make([]string, 0, len(g.Order))
	for _, name := range g.Order {
		pr := g.Prods[name]
		if !opts.Memoize || (!opts.MemoEverything && pr.Attrs.Has(peg.AttrTransient)) {
			continue
		}
		if keep != nil && name != g.Root && !keep[name] && !pr.Attrs.Has(peg.AttrMemo) {
			continue
		}
		memoized = append(memoized, name)
	}
	sort.SliceStable(memoized, func(i, j int) bool {
		return a.RefCount[memoized[i]] > a.RefCount[memoized[j]]
	})
	memoCol := make(map[string]int, len(memoized))
	for i, name := range memoized {
		memoCol[name] = i
	}
	p.memoCols = len(memoized)

	c := &compiler{prog: p, analysis: a}
	p.prods = make([]prodInfo, len(g.Order))
	for i, name := range g.Order {
		pr := g.Prods[name]
		info := &p.prods[i]
		info.name = name
		info.display = displayNameOf(name)
		info.attrs = pr.Attrs
		info.nullable = a.Nullable[name]
		// Fast-fail on the first byte for every non-nullable production:
		// the first set is an over-approximation of what a non-empty
		// match can start with even when imprecise (predicates constrain,
		// never extend, it), so a byte outside the set is a definitive
		// failure, not merely a skip.
		info.firstOK = !a.Nullable[name]
		if f := a.First[name]; f != nil {
			info.first = *f
		}
		switch {
		case pr.Attrs.Has(peg.AttrText):
			info.kind = valText
		case pr.Attrs.Has(peg.AttrVoid):
			info.kind = valVoid
		default:
			info.kind = valNormal
		}
		voidBody := info.kind != valNormal
		info.body = c.compile(pr.Choice, voidBody)

		if col, ok := memoCol[name]; ok {
			info.memoCol = col
		} else {
			info.memoCol = -1
		}
	}
	if opts.Compiled {
		p.code = compileClosures(p)
	}
	return p, nil
}

// ----------------------------------------------------------------- nodes

// node is a compiled parsing expression. Implementations live in this file
// and are interpreted by the engine in interp.go.
type node interface{ isNode() }

type nEmpty struct{}

type nLit struct {
	text    string
	display string // precomputed %q form for failure reporting
}

type nClass struct {
	// set is the class as a 256-bit bitmap: matching is one table probe
	// (two shifts and a mask) regardless of how many ranges the source
	// class had, and negated classes cost the same as positive ones.
	set  analysis.ByteSet
	void bool // no token value needed
}

// nScanClass is a fused (class)* / (class)+ repetition in void context: it
// consumes the whole run of matching bytes in one interpreter frame
// instead of one frame per byte. When the class rejects exactly one byte
// (the [^"]* shape), stopOK routes the scan through strings.IndexByte.
type nScanClass struct {
	set    analysis.ByteSet
	min    int  // minimum run length (0 for *, 1 for +)
	stop   byte // when stopOK: the single byte the class rejects
	stopOK bool
}

// nScanLit is a fused (literal)* / (literal)+ repetition in void context.
type nScanLit struct {
	text    string
	display string
	min     int
}

// choiceTable is an nChoice's first-set pruning table: masks[b] has bit i
// set when alternative i is worth trying with b as the next input byte —
// b is in the alternative's first-set over-approximation, or the
// alternative is nullable (the nullable-prefix fallback: it may match
// without consuming, so no byte may prune it). eof is the mask at end of
// input, where only nullable alternatives can still match. Pruning with
// an over-approximate first set is sound even when the set is imprecise
// (predicates constrain, never extend, what a match may start with), and
// it preserves failure positions: a pruned alternative could not have
// consumed its first byte, so every failure it would have recorded sits
// at the choice's own position. The engines charge those failures to
// the farthest-failure record as (table, mask) pairs (Parser.prune) and
// name them by expect only when a syntax error is reported.
type choiceTable struct {
	masks [256]uint64
	eof   uint64
	all   uint64 // every alternative's bit, for skip accounting
	// expect[i] is what alternative i expects at the choice's position
	// (expectOf).
	expect []string
}

type nAny struct{ void bool }

type nCall struct{ prod int }

type itemRole uint8

const (
	roleNormal itemRole = iota
	roleHead            // splice protocol: contribute non-nil value
	roleTail            // splice protocol: splice the callee's list
	roleEmpty           // splice protocol: contributes nothing
)

type nItem struct {
	n     node
	bound bool
	role  itemRole
}

type nSeq struct {
	items []nItem
	// ctor builds a node value; empty ctor is pass-through.
	ctor string
	// hasBind: children are the bound item values (nil included); else all
	// non-nil values.
	hasBind bool
	// splice: the sequence uses the repetition-expansion splice protocol
	// and produces a flat ast.List.
	splice bool
	void   bool
}

type nChoice struct {
	alts []nAlt
	// tbl, when non-nil, prunes alternatives by next byte (see
	// choiceTable); the per-alternative dispatchOK path is the fallback
	// for choices too wide for a mask word.
	tbl *choiceTable
}

type nAlt struct {
	n node
	// dispatch data: when ok, the alternative is skippable if the next
	// byte is not in first (and the alternative cannot match empty);
	// a skip records the failure expect names (expectOf). Choices with
	// a table prune through it instead and leave expect empty.
	dispatchOK bool
	first      analysis.ByteSet
	expect     string
}

type nRepeat struct {
	min  int
	body node
	void bool // iterations yield no values
}

type nOpt struct {
	body node
	void bool
}

type nAnd struct{ body node }

type nNot struct{ body node }

type nCapture struct{ body node }

type nLeftRec struct {
	seed     node
	suffixes []nSeq
	void     bool
}

func (nEmpty) isNode()      {}
func (nLit) isNode()        {}
func (*nClass) isNode()     {}
func (*nScanClass) isNode() {}
func (*nScanLit) isNode()   {}
func (nAny) isNode()        {}
func (nCall) isNode()       {}
func (*nSeq) isNode()       {}
func (*nChoice) isNode()    {}
func (*nRepeat) isNode()    {}
func (*nOpt) isNode()       {}
func (*nAnd) isNode()       {}
func (*nNot) isNode()       {}
func (*nCapture) isNode()   {}
func (*nLeftRec) isNode()   {}

// ------------------------------------------------------------- compiler

type compiler struct {
	prog     *Program
	analysis *analysis.Analysis
}

// compile translates e into executable form; void indicates that the value
// of e will be discarded, enabling value-free specialization.
func (c *compiler) compile(e peg.Expr, void bool) node {
	switch e := e.(type) {
	case nil, *peg.Empty:
		return nEmpty{}
	case *peg.Literal:
		if e.Text == "" {
			// Matches like ε; the lowerings index a literal's first byte.
			return nEmpty{}
		}
		return nLit{text: e.Text, display: fmt.Sprintf("%q", e.Text)}
	case *peg.CharClass:
		return &nClass{set: classSet(e), void: void}
	case *peg.Any:
		return nAny{void: void}
	case *peg.NonTerm:
		return nCall{prod: c.prog.index[e.Name]}
	case *peg.Capture:
		if void {
			// The token would be discarded: compile the body void and skip
			// the capture wrapper entirely.
			return c.compile(e.Expr, true)
		}
		return &nCapture{body: c.compile(e.Expr, true)}
	case *peg.And:
		return &nAnd{body: c.compile(e.Expr, true)}
	case *peg.Not:
		return &nNot{body: c.compile(e.Expr, true)}
	case *peg.Optional:
		bodyVoid := void || !c.analysis.ExprValued(e.Expr)
		return &nOpt{body: c.compile(e.Expr, bodyVoid), void: bodyVoid}
	case *peg.Repeat:
		bodyVoid := void || !c.analysis.ExprValued(e.Expr)
		if c.prog.opts.ScanFusion && bodyVoid {
			switch b := e.Expr.(type) {
			case *peg.CharClass:
				n := &nScanClass{set: classSet(b), min: e.Min}
				if n.set.Len() == 255 {
					for i := 0; i < 256; i++ {
						if !n.set.Has(byte(i)) {
							n.stop, n.stopOK = byte(i), true
							break
						}
					}
				}
				return n
			case *peg.Literal:
				if len(b.Text) > 0 {
					return &nScanLit{text: b.Text, display: fmt.Sprintf("%q", b.Text), min: e.Min}
				}
			}
		}
		return &nRepeat{min: e.Min, body: c.compile(e.Expr, bodyVoid), void: bodyVoid}
	case *peg.Seq:
		return collapseSeq(c.compileSeq(e, void))
	case *peg.Choice:
		if len(e.Alts) == 1 {
			return collapseSeq(c.compileSeq(e.Alts[0], void))
		}
		n := &nChoice{alts: make([]nAlt, len(e.Alts))}
		for i, alt := range e.Alts {
			na := nAlt{n: collapseSeq(c.compileSeq(alt, void))}
			if c.prog.opts.Dispatch {
				set, precise := c.firstOf(alt)
				if precise && !c.nullable(alt) {
					na.dispatchOK = true
					na.first = *set
					if len(e.Alts) > 64 {
						na.expect = c.expectOf(alt)
					}
				}
			}
			n.alts[i] = na
		}
		if c.prog.opts.Dispatch && len(e.Alts) <= 64 {
			n.tbl = c.choiceTableOf(e)
		}
		return n
	case *peg.LeftRec:
		n := &nLeftRec{seed: c.compile(e.Seed, void), void: void}
		for _, s := range e.Suffixes {
			n.suffixes = append(n.suffixes, *c.compileSeq(s, void))
		}
		return n
	default:
		panic(fmt.Sprintf("vm: unknown expression %T", e))
	}
}

func (c *compiler) compileSeq(s *peg.Seq, void bool) *nSeq {
	n := &nSeq{ctor: s.Ctor, hasBind: s.HasBindings(), void: void}
	if void {
		n.ctor = ""
		n.hasBind = false
	} else if s.IsSpliceSeq() {
		n.splice = true
		n.ctor = ""
		n.hasBind = false
	}
	for _, it := range s.Items {
		role := roleNormal
		switch it.Bind {
		case peg.BindHead:
			role = roleHead
		case peg.BindTail:
			role = roleTail
		case peg.BindEmpty:
			role = roleEmpty
		}
		itemVoid := void
		if !void && !n.splice && n.hasBind && it.Bind == "" {
			// Only bound items contribute children under a binding ctor; an
			// unbound sibling's value is discarded... unless the sequence is
			// pass-through (no ctor), where every value counts.
			itemVoid = n.ctor != ""
		}
		n.items = append(n.items, nItem{
			n:     c.compile(it.Expr, itemVoid || isPredicate(it.Expr)),
			bound: it.Bind != "",
			role:  role,
		})
	}
	return n
}

// collapseSeq unwraps a pass-through sequence of exactly one plain item:
// its value is the item's value verbatim (seqValue's single-element
// case), so the wrapping frame is pure interpretation overhead — one
// eval dispatch per attempt, paid on every choice alternative. Sequences
// with a constructor, bindings, or the splice protocol keep their frame.
func collapseSeq(n *nSeq) node {
	if len(n.items) == 1 && n.ctor == "" && !n.hasBind && !n.splice && n.items[0].role == roleNormal {
		return n.items[0].n
	}
	return n
}

// classSet builds the bitmap of a character class, byte-for-byte
// equivalent to CharClass.Matches.
func classSet(e *peg.CharClass) analysis.ByteSet {
	var s analysis.ByteSet
	for _, r := range e.Ranges {
		s.AddRange(r.Lo, r.Hi)
	}
	if e.Negated {
		s.Invert()
	}
	return s
}

// choiceTableOf builds the byte→alternatives pruning table of a choice,
// or returns nil when no byte would prune anything (the table would be
// pure overhead). Unlike the per-alternative dispatchOK path this uses
// the first set whether or not it is precise: over-approximate sets are
// always sound to prune on (see the choiceTable comment); precision only
// matters for the whole-production fast-fail, which turns a byte miss
// into a definitive failure rather than a skip.
func (c *compiler) choiceTableOf(e *peg.Choice) *choiceTable {
	tbl := &choiceTable{expect: make([]string, len(e.Alts))}
	for i, alt := range e.Alts {
		bit := uint64(1) << i
		tbl.all |= bit
		tbl.expect[i] = c.expectOf(alt)
		if c.nullable(alt) {
			tbl.eof |= bit
			for b := 0; b < 256; b++ {
				tbl.masks[b] |= bit
			}
			continue
		}
		set, _ := c.firstOf(alt)
		for b := 0; b < 256; b++ {
			if set.Has(byte(b)) {
				tbl.masks[b] |= bit
			}
		}
	}
	if tbl.eof != tbl.all {
		return tbl
	}
	for b := 0; b < 256; b++ {
		if tbl.masks[b] != tbl.all {
			return tbl
		}
	}
	return nil
}

func isPredicate(e peg.Expr) bool {
	switch e.(type) {
	case *peg.And, *peg.Not:
		return true
	}
	return false
}

func (c *compiler) firstOf(e peg.Expr) (*analysis.ByteSet, bool) {
	return analysis.FirstOfExpr(c.analysis, e)
}

func (c *compiler) nullable(e peg.Expr) bool {
	return analysis.NullableExpr(c.analysis, e)
}

// expectOf names the failure e records when its first byte does not
// match, as the terminal and call sites spell it: a quoted literal,
// "character class", "any character", or the production e starts with.
// Nullable leading items are passed over, since a first-byte miss lets
// them match empty.
func (c *compiler) expectOf(e peg.Expr) string {
	switch e := e.(type) {
	case *peg.Literal:
		return fmt.Sprintf("%q", e.Text)
	case *peg.CharClass:
		return "character class"
	case *peg.Any:
		return "any character"
	case *peg.NonTerm:
		return displayNameOf(e.Name)
	case *peg.Capture:
		return c.expectOf(e.Expr)
	case *peg.Repeat:
		return c.expectOf(e.Expr)
	case *peg.LeftRec:
		return c.expectOf(e.Seed)
	case *peg.Choice:
		return c.expectOf(e.Alts[0])
	case *peg.Seq:
		for _, it := range e.Items {
			if !c.nullable(it.Expr) {
				return c.expectOf(it.Expr)
			}
		}
	}
	return "lookahead"
}

// displayNameOf strips the module qualifier for error messages.
func displayNameOf(full string) string {
	if i := strings.LastIndexByte(full, '.'); i >= 0 {
		return full[i+1:]
	}
	return full
}
