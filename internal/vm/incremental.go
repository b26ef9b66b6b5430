package vm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// This file implements incremental reparsing over recycled memo tables.
//
// A packrat parse leaves behind a memo table mapping (production,
// position) to outcomes. After a small edit most of that table is still
// an accurate description of the new text: entries whose examined region
// lies entirely before the edit saw nothing change, and entries whose
// position lies entirely after it saw the same bytes at shifted
// positions (PEG evaluation only ever reads forward from its start).
// Document keeps the table between parses and reuses it:
//
//  1. Invalidate every entry whose examined span overlaps an edit's
//     damage region. "Examined" is wider than "matched": first-byte
//     dispatch, literals that failed partway, character classes, and
//     lookahead predicates all read bytes they did not consume, so each
//     entry's match extent is widened by its production's recorded
//     farthest-lookahead watermark (Parser.prodLook, maintained by
//     parseProd's examined-region framing in interp.go).
//  2. Relocate surviving entries past an edit by the length delta. The
//     chunked memo layout makes this a pointer splice: entries record the
//     length they consumed rather than an absolute end position, so
//     moving a whole position's chunk-directory row to its shifted slot
//     relocates every entry in it without rewriting a single row. The
//     directory is spliced in place, one copy per edit, last edit first.
//     Only rows that can reach an edit are read: two side arrays hold,
//     per position, the row's longest entry and its live-entry count, so
//     a row whose longest entry plus the largest lookahead watermark
//     stops short of the next edit moves without being scanned, and a
//     row inside a damage region is dropped and charged by its count.
//     The scan is therefore bounded by the productions enclosing the
//     edit, not by the document.
//  3. Reparse from the root. Everything outside the damage re-derives
//     instantly from surviving entries (counted as Stats.MemoReused);
//     only productions overlapping the damage are actually re-evaluated.
//
// Two fallbacks keep the scheme honest. When the damage region exceeds
// incrementalDamageFraction of the document, reuse cannot pay for the
// remap and Apply reparses from scratch. And because invalidated
// entries' storage is only reclaimed by a full reparse (the memo arenas
// recycle wholesale, not entry-by-entry), Apply also falls back when the
// carved arena footprint outgrows incrementalGrowthFactor times the last
// full parse's — bounding a long edit session's memory at a constant
// factor of one parse.
//
// Reused success values are shared subtrees of earlier results: their
// contents are identical to what a from-scratch parse would build, but
// their recorded spans refer to the revision that first parsed them (and
// relocation does not rewrite values). ast.Equal and ast.Format are
// span-insensitive, and the incremental-vs-scratch fuzz oracle holds
// Apply to producing equal values. Failed parses are reported exactly as
// a from-scratch parse would report them: when the incremental pass does
// not accept the document, Apply redoes a full reparse, so farthest-
// failure positions and expectation sets never reflect recycled state.

// Edit describes one textual change to a Document: the OldLen bytes at
// Off (both in pre-edit coordinates) are replaced by Text, whose length
// must equal NewLen. Insertions have OldLen 0; deletions have NewLen 0.
// A batch passed to one Apply call must not contain overlapping edits;
// edits may touch, and are applied in position order.
type Edit struct {
	Off    int    // byte offset of the change in the pre-edit text
	OldLen int    // bytes removed
	NewLen int    // bytes inserted; must equal len(Text)
	Text   string // replacement content
}

// Fallback thresholds; see the file comment.
const (
	// incrementalDamageFraction is the largest fraction of the post-edit
	// document the damage regions may cover before Apply prefers a full
	// reparse.
	incrementalDamageFraction = 0.25
	// incrementalGrowthFactor bounds the carved memo-arena footprint at
	// this multiple of the last full parse's footprint (plus
	// incrementalGrowthSlack for small documents); beyond it Apply does a
	// full reparse to compact the table.
	incrementalGrowthFactor = 4
	incrementalGrowthSlack  = 256 << 10
)

// Document owns a source text plus the memo state of its last parse and
// reparses incrementally as the text is edited. Create one with
// Program.NewDocument; mutate it with Apply. A Document is not safe for
// concurrent use, and it holds a dedicated Parser (with its memo arenas)
// alive for its own lifetime — it is an editor-session object, not a
// per-request one.
//
// Incremental reuse requires the memoizing chunked engine (the Optimized
// configuration). Under other engine configurations a Document still
// works — Apply simply reparses from scratch every time.
type Document struct {
	prog *Program
	ps   *Parser
	name string
	txt  string

	val   ast.Value
	stats Stats
	err   error

	// cumulative live-table accounting in the Stats.MemoBytes model:
	// rows and chunks holding at least one live entry, kept by deltas as
	// remap drops them and applies allocate them.
	liveRows   int
	liveChunks int
	// arena footprint right after the last full reparse, for the growth
	// fallback.
	baseArenaBytes int

	// gens is the document's parse generation; entries stored during
	// apply N carry tag N, so hits on older tags count as reuse. A wrap
	// of the uint16 tag space forces a full reparse, which resets to 0.
	gens uint16
}

// NewDocument parses src and returns a Document holding the result and
// the parse's memo state. The initial parse's outcome is available via
// Value, Stats, and Err; a Document whose current text does not parse is
// still editable (that is the normal state mid-edit).
func (p *Program) NewDocument(src *text.Source) *Document {
	d := &Document{
		prog: p,
		// Non-nil side arrays turn on the per-row accounting remap reads;
		// begin sizes them with the directory.
		ps:   &Parser{prog: p, rowMax: []int32{}, rowLive: []int32{}},
		name: src.Name(),
	}
	d.fullParse(src)
	return d
}

// Value returns the semantic value of the last (re)parse, nil if it
// failed.
func (d *Document) Value() ast.Value { return d.val }

// Stats returns the statistics of the last (re)parse. For incremental
// applies, MemoBytes reports the whole live table (surviving plus new
// storage), not just the apply's own allocations, so it stays comparable
// to a from-scratch parse of the same text.
func (d *Document) Stats() Stats { return d.stats }

// Err returns the last (re)parse's error, nil if it succeeded.
func (d *Document) Err() error { return d.err }

// Text returns the document's current content.
func (d *Document) Text() string { return d.txt }

// Source returns the document's current content as a *text.Source.
func (d *Document) Source() *text.Source { return d.ps.src }

// Apply applies the edits to the document text and reparses, reusing the
// previous parse's memo table where it is still valid. It returns the new
// semantic value, the reparse's statistics (Stats.MemoReused,
// MemoInvalidated, and MemoRelocated describe the reuse), and the parse
// error if the edited text does not parse. Invalid edits (out of bounds,
// overlapping, or NewLen ≠ len(Text)) leave the document untouched and
// return an error. Applying no edits returns the cached result.
func (d *Document) Apply(edits ...Edit) (ast.Value, Stats, error) {
	if len(edits) == 0 {
		return d.val, d.stats, d.err
	}
	sorted, damage, err := normalizeEdits(d.txt, edits)
	if err != nil {
		return nil, Stats{}, err
	}
	newText := spliceEdits(d.txt, sorted)
	src := text.NewSource(d.name, newText)
	metrics.incrementalApplies.Add(1)

	full := !d.canReuse() ||
		float64(damage) > incrementalDamageFraction*float64(len(newText)+1) ||
		d.ps.memoArenaBytes() > incrementalGrowthFactor*d.baseArenaBytes+incrementalGrowthSlack ||
		d.gens == math.MaxUint16
	if full {
		metrics.incrementalFullReparses.Add(1)
		d.fullParse(src)
		return d.val, d.stats, d.err
	}

	invalidated, relocated := d.remap(sorted)
	d.gens++
	d.ps.gen = d.gens
	d.ps.beginIncremental(src)
	val, err := d.ps.run()
	stats := d.ps.stats
	if err != nil {
		// Report failures exactly as a from-scratch parse would: reused
		// entries cannot replay the failure records their original
		// evaluation produced, so the farthest-failure diagnosis of a
		// failed incremental pass could otherwise differ from scratch.
		// The returned Stats describe the full reparse that produced the
		// reported result.
		metrics.incrementalFullReparses.Add(1)
		d.fullParse(src)
		return d.val, d.stats, d.err
	}
	d.liveRows += stats.ChunkRows
	d.liveChunks += stats.ChunksAllocated
	stats.MemoInvalidated = invalidated
	stats.MemoRelocated = relocated
	stats.MemoBytes = d.liveChunks*chunkSize*memoEntrySize + d.liveRows*d.ps.chunkCount*8
	metrics.observePeakMemo(int64(stats.MemoBytes))
	metrics.memoEntriesReused.Add(int64(stats.MemoReused))
	metrics.memoEntriesInvalidated.Add(int64(invalidated))
	metrics.memoEntriesRelocated.Add(int64(relocated))
	d.txt = newText
	d.val, d.stats, d.err = val, stats, nil
	return d.val, d.stats, d.err
}

// canReuse reports whether the engine configuration supports memo-table
// recycling: the chunked memoizing layout with at least one memo column.
func (d *Document) canReuse() bool {
	return d.prog.opts.Memoize && d.prog.opts.ChunkedMemo && d.prog.memoCols > 0
}

// fullParse reparses src from scratch, resetting the memo table, the
// lookahead watermarks, and the generation counter.
func (d *Document) fullParse(src *text.Source) {
	d.ps.begin(src)
	d.val, d.err = d.ps.run()
	d.stats = d.ps.stats
	d.txt = src.Content()
	d.liveRows = d.stats.ChunkRows
	d.liveChunks = d.stats.ChunksAllocated
	d.baseArenaBytes = d.ps.memoArenaBytes()
	d.gens = 0
}

// remap performs the invalidate-and-relocate pass over the chunk
// directory, in place. In pre-edit coordinates it scans the rows before
// each edit whose reach (longest entry plus the largest lookahead
// watermark) crosses into the edit, killing the entries whose examined
// span does, and drops the rows inside each damage region. It then
// splices the directory and its side arrays, last edit first, so that
// every surviving row lands at its shifted position. It returns the
// invalidated and relocated entry counts; rows it does not scan are
// counted from rowLive without being read.
func (d *Document) remap(edits []Edit) (invalidated, relocated int) {
	ps := d.ps
	reach := 0
	for _, look := range ps.prodLook {
		reach = max(reach, int(look))
	}
	start, delta := 0, 0
	for _, e := range edits {
		live := 0
		for pos := start; pos < e.Off; pos++ {
			if pos+int(ps.rowMax[pos])+reach > e.Off && ps.rowLive[pos] != 0 {
				invalidated += d.trimRow(pos, e.Off)
			}
			live += int(ps.rowLive[pos])
		}
		if delta != 0 {
			relocated += live
		}
		for pos := e.Off; pos < e.Off+e.OldLen; pos++ {
			if ps.rowLive[pos] != 0 {
				invalidated += int(ps.rowLive[pos])
				d.dropRow(pos)
			}
		}
		delta += e.NewLen - e.OldLen
		start = e.Off + e.OldLen
	}
	if delta != 0 {
		for _, live := range ps.rowLive[start:] {
			relocated += int(live)
		}
	}

	// Make room for the largest length the directory passes through, then
	// splice. Going last edit first, each splice moves only positions at
	// or after its own edit, so the earlier edits' offsets stay valid.
	grow, g := 0, 0
	for i := len(edits) - 1; i >= 0; i-- {
		g += edits[i].NewLen - edits[i].OldLen
		grow = max(grow, g)
	}
	ps.chunks = slices.Grow(ps.chunks, grow)
	ps.rowMax = slices.Grow(ps.rowMax, grow)
	ps.rowLive = slices.Grow(ps.rowLive, grow)
	for i := len(edits) - 1; i >= 0; i-- {
		e := edits[i]
		ps.chunks = splice(ps.chunks, e.Off, e.OldLen, e.NewLen)
		ps.rowMax = splice(ps.rowMax, e.Off, e.OldLen, e.NewLen)
		ps.rowLive = splice(ps.rowLive, e.Off, e.OldLen, e.NewLen)
	}
	return invalidated, relocated
}

// trimRow kills the entries of the row at pos whose examined span reaches
// limit, unlinking chunks and the row itself once they hold no live
// entry, and refreshes the row's side-array slots. It returns the number
// of entries killed.
func (d *Document) trimRow(pos, limit int) (killed int) {
	ps := d.ps
	row := ps.chunks[pos]
	live, longest := 0, int32(0)
	for ci, chunk := range row {
		if chunk == nil {
			continue
		}
		chunkLive := 0
		base := ci * chunkSize
		for k := range chunk {
			e := &chunk[k]
			if e.state == memoEmpty {
				continue
			}
			if pos+int(e.len)+int(ps.prodLook[base+k]) > limit {
				*e = memoEntry{}
				killed++
				continue
			}
			chunkLive++
			longest = max(longest, e.len)
		}
		if chunkLive == 0 {
			// Fully dead chunk: unlink it so the live-table model does not
			// keep charging for it (its arena storage is reclaimed by the
			// next full reparse).
			row[ci] = nil
			d.liveChunks--
		}
		live += chunkLive
	}
	if live == 0 {
		d.dropRow(pos)
		return killed
	}
	ps.rowMax[pos] = longest
	ps.rowLive[pos] = int32(live)
	return killed
}

// dropRow unlinks the row at pos, and the chunks still linked in it,
// from the directory and the live-table accounting.
func (d *Document) dropRow(pos int) {
	ps := d.ps
	for _, chunk := range ps.chunks[pos] {
		if chunk != nil {
			d.liveChunks--
		}
	}
	d.liveRows--
	ps.chunks[pos] = nil
	ps.rowMax[pos] = 0
	ps.rowLive[pos] = 0
}

// splice replaces s[off:off+oldLen] by newLen zero elements in place,
// moving the tail; s must have the capacity for any growth. Whatever the
// slice gives up past its new length is zeroed, so no stale element
// survives in its spare capacity.
func splice[T any](s []T, off, oldLen, newLen int) []T {
	end := len(s)
	n := end - oldLen + newLen
	if oldLen != newLen {
		s = s[:max(n, end)]
		copy(s[off+newLen:], s[off+oldLen:end])
		if n < end {
			clear(s[n:end])
		}
	}
	clear(s[off : off+newLen])
	return s[:n]
}

// normalizeEdits validates edits against the current text, returning a
// position-sorted copy and the total damage size (the larger of each
// edit's removed and inserted extent, summed — the scan width a reparse
// must re-derive at minimum).
func normalizeEdits(cur string, edits []Edit) ([]Edit, int, error) {
	sorted := make([]Edit, len(edits))
	copy(sorted, edits)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	damage := 0
	prevEnd := 0
	for i, e := range sorted {
		switch {
		case e.Off < 0 || e.OldLen < 0 || e.NewLen < 0:
			return nil, 0, fmt.Errorf("modpeg/vm: invalid edit %+v: negative field", e)
		case e.Off+e.OldLen > len(cur):
			return nil, 0, fmt.Errorf("modpeg/vm: invalid edit %+v: out of bounds (document is %d bytes)", e, len(cur))
		case e.NewLen != len(e.Text):
			return nil, 0, fmt.Errorf("modpeg/vm: invalid edit %+v: NewLen %d != len(Text) %d", e, e.NewLen, len(e.Text))
		case i > 0 && e.Off < prevEnd:
			return nil, 0, fmt.Errorf("modpeg/vm: overlapping edits at offset %d", e.Off)
		}
		prevEnd = e.Off + e.OldLen
		if e.OldLen > e.NewLen {
			damage += e.OldLen
		} else {
			damage += e.NewLen
		}
	}
	return sorted, damage, nil
}

// spliceEdits applies position-sorted, non-overlapping edits to cur.
func spliceEdits(cur string, edits []Edit) string {
	var b strings.Builder
	n := len(cur)
	for _, e := range edits {
		n += e.NewLen - e.OldLen
	}
	b.Grow(n)
	at := 0
	for _, e := range edits {
		b.WriteString(cur[at:e.Off])
		b.WriteString(e.Text)
		at = e.Off + e.OldLen
	}
	b.WriteString(cur[at:])
	return b.String()
}

// beginIncremental rewinds the parser for a reparse that keeps the memo
// state: statistics and failure tracking reset as in begin, but the
// chunk directory, the memo arenas, and the lookahead watermarks are
// preserved — the caller has already remapped the directory for the new
// text and bumped the generation tag.
func (ps *Parser) beginIncremental(src *text.Source) {
	metrics.parsesStarted.Add(1)
	if ps.used {
		metrics.sessionResets.Add(1)
	}
	ps.used = true
	ps.src = src
	ps.in = src.Content()
	ps.stats = Stats{}
	ps.failPos = -1
	ps.failExpected = ps.failExpected[:0]
	ps.pruned = ps.pruned[:0]
	ps.quiet = 0
	ps.hook = nil
	ps.examined = 0
	ps.beginTelemetry()
	ps.disarm()
	scratch := ps.scratch[:cap(ps.scratch)]
	clear(scratch)
	ps.scratch = ps.scratch[:0]
}
