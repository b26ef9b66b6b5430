package vm

import (
	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// This file holds the session allocators that make steady-state parsing
// allocation-free (for the parser machinery) and cheap (for semantic
// values):
//
//   - chunkArena and rowArena own the memo table's storage. Chunks and
//     per-position chunk directories are carved from large slabs and
//     recycled wholesale on reset, so a reused Parser performs no memo
//     allocations after its first parse (beyond high-water-mark growth).
//   - valueArena batch-allocates the semantic values a parse hands back
//     to the caller. Carved values escape into the caller's AST, so this
//     arena is never recycled — it only amortizes allocator round trips,
//     one slab allocation per slab-load of values — and each parse
//     starts fresh slabs (begin calls reset), so no slab is shared by
//     two parses' trees.
//
// Recycling correctness rests on one invariant, maintained inductively:
// every chunk (and row pointer) at or beyond an arena's carve point is
// zero. Fresh slabs are born zero; reset zeroes exactly the carved
// prefix [0, high-water) and rewinds the carve point to 0. Zeroing on
// reset rather than on alloc keeps the clear in one bulk memclr per slab
// and drops the previous parse's ast.Value references for the collector.

// chunkSlabLen is the number of memoChunks per arena slab (~96 KB/slab at
// the current chunk geometry) — large enough that a 40 KB parse touches a
// few dozen slabs, small enough not to overshoot tiny inputs badly.
const chunkSlabLen = 512

// chunkArena carves memoChunks out of reusable slabs.
type chunkArena struct {
	slabs [][]memoChunk
	slab  int // index of the slab currently being carved
	used  int // chunks carved from slabs[slab]
}

func (a *chunkArena) alloc() *memoChunk {
	if len(a.slabs) == 0 || a.used == chunkSlabLen {
		a.nextSlab()
	}
	c := &a.slabs[a.slab][a.used]
	a.used++
	return c
}

func (a *chunkArena) nextSlab() {
	if len(a.slabs) > 0 {
		a.slab++
	}
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]memoChunk, chunkSlabLen))
		metrics.arenaCarved.Add(chunkSlabLen * chunkSize * memoEntrySize)
	}
	a.used = 0
}

// reset zeroes the carved prefix and rewinds, making every previously
// handed-out chunk available — and empty — again. The recycled prefix
// is credited to the metrics registry (Stats.MemoBytes model): memo
// storage a session reuse saved the allocator from providing again.
func (a *chunkArena) reset() {
	for i := 0; i < a.slab; i++ {
		clear(a.slabs[i])
	}
	if a.slab < len(a.slabs) {
		clear(a.slabs[a.slab][:a.used])
	}
	metrics.arenaRecycled.Add(int64(a.slab*chunkSlabLen+a.used) * chunkSize * memoEntrySize)
	a.slab, a.used = 0, 0
}

// liveBytes reports the bytes of chunk storage carved since the last
// reset — the arena-level counterpart of the Stats.MemoBytes model,
// used by the governance layer (limits.go) to report actual carved
// storage when the memo budget sheds memoization.
func (a *chunkArena) liveBytes() int {
	return (a.slab*chunkSlabLen + a.used) * chunkSize * memoEntrySize
}

// rowSlabLen is the number of chunk pointers per row-arena slab (~64 KB).
const rowSlabLen = 8192

// rowArena carves per-position chunk directories ([]*memoChunk of the
// program's chunksPerPos length) out of reusable pointer slabs.
type rowArena struct {
	slabs [][]*memoChunk
	slab  int
	used  int
}

func (a *rowArena) alloc(n int) []*memoChunk {
	if n > rowSlabLen {
		// Degenerate geometry (tens of thousands of memoized productions);
		// fall back to the allocator rather than size slabs for it.
		return make([]*memoChunk, n)
	}
	if len(a.slabs) == 0 || a.used+n > rowSlabLen {
		a.nextSlab()
	}
	row := a.slabs[a.slab][a.used : a.used+n : a.used+n]
	a.used += n
	return row
}

func (a *rowArena) nextSlab() {
	if len(a.slabs) > 0 {
		a.slab++
	}
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]*memoChunk, rowSlabLen))
		metrics.arenaCarved.Add(rowSlabLen * 8)
	}
	a.used = 0
}

func (a *rowArena) reset() {
	// Slab tails skipped because a row did not fit are inside the cleared
	// prefix of their slab, so the zero invariant covers them too.
	for i := 0; i < a.slab; i++ {
		clear(a.slabs[i])
	}
	if a.slab < len(a.slabs) {
		clear(a.slabs[a.slab][:a.used])
	}
	metrics.arenaRecycled.Add(int64(a.slab*rowSlabLen+a.used) * 8)
	a.slab, a.used = 0, 0
}

// liveBytes reports the bytes of row-directory storage carved since the
// last reset (see chunkArena.liveBytes).
func (a *rowArena) liveBytes() int {
	return (a.slab*rowSlabLen + a.used) * 8
}

// memoArenaBytes is the actual carved footprint of the memo arenas —
// what the allocator is really holding for this parse, as opposed to
// the modeled Stats.MemoBytes the budgets are denominated in.
func (ps *Parser) memoArenaBytes() int {
	return ps.chunkArena.liveBytes() + ps.rowArena.liveBytes()
}

// Value-arena slab sizes, in elements. Tokens and nodes dominate real
// ASTs; child slices are carved from a shared backing slab. A parse's
// first slab of each kind is 1/firstSlabDiv of the full size, and each
// further slab doubles, up to the full size.
const (
	tokenSlabLen = 512
	nodeSlabLen  = 512
	valSlabLen   = 2048
	firstSlabDiv = 32
)

// valueArena batch-allocates semantic values. It is deliberately not
// recyclable: carved tokens, nodes, and child slices are owned by the
// caller's AST once the parse returns. The arena merely hands out
// elements of slab arrays and forgets each slab as it fills, so the
// collector reclaims a slab when the AST referencing it dies.
//
// reset forgets the partly carved slabs too. Without it the next parse
// would carve from them, and a slab holding values of two parses keeps
// the older tree alive as long as the newer one: a reused Parser would
// chain every tree it ever built. Slabs grow geometrically within a
// parse, so a small input does not pay for full-size slabs.
type valueArena struct {
	tokens []ast.Token
	nodes  []ast.Node
	vals   []ast.Value
	// length of the next slab of each kind (0 = the first slab's)
	tokenNext, nodeNext, valNext int
}

// reset drops the current slabs, so the next value carved belongs to a
// fresh slab of the smallest size.
func (a *valueArena) reset() { *a = valueArena{} }

// slabLen returns the length for the next slab of a kind whose full
// slab length is full, and doubles it for the slab after.
func slabLen(next *int, full int) int {
	n := *next
	if n == 0 {
		n = full / firstSlabDiv
	}
	*next = min(2*n, full)
	return n
}

func (a *valueArena) newToken(txt string, sp text.Span) *ast.Token {
	if len(a.tokens) == 0 {
		a.tokens = make([]ast.Token, slabLen(&a.tokenNext, tokenSlabLen))
	}
	t := &a.tokens[0]
	a.tokens = a.tokens[1:]
	t.Text = txt
	t.Span = sp
	return t
}

func (a *valueArena) newNode(name string, children []ast.Value, sp text.Span) *ast.Node {
	if len(a.nodes) == 0 {
		a.nodes = make([]ast.Node, slabLen(&a.nodeNext, nodeSlabLen))
	}
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	n.Name = name
	n.Children = children
	n.Span = sp
	return n
}

// carve returns an uninitialized value slice of length and capacity n.
// Capacity is clamped to n so that a caller-side append can never bleed
// into a neighbouring carve.
func (a *valueArena) carve(n int) []ast.Value {
	if n == 0 {
		return nil
	}
	if n > len(a.vals) {
		if n >= valSlabLen/2 {
			return make([]ast.Value, n)
		}
		a.vals = make([]ast.Value, max(slabLen(&a.valNext, valSlabLen), n))
	}
	out := a.vals[:n:n]
	a.vals = a.vals[n:]
	return out
}

// copyVals carves an exact-capacity copy of vs (nil when empty).
func (a *valueArena) copyVals(vs []ast.Value) []ast.Value {
	out := a.carve(len(vs))
	copy(out, vs)
	return out
}
