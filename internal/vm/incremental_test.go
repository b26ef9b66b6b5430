package vm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/text"
)

// The incremental-reparse tests hold Document.Apply to one contract:
// after any sequence of edits, the document's value and error must be
// exactly what a from-scratch parse of the same text produces. The
// scratch oracle below runs on the same Program but through the pooled
// Parse path, so it never shares memo state with the document.

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstScratch asserts the document's last result matches a
// from-scratch parse of its current text.
func checkAgainstScratch(t *testing.T, d *Document, label string) Stats {
	t.Helper()
	// Same source name as the document so error strings are comparable
	// byte for byte (locations embed the name).
	val, stats, err := d.prog.Parse(text.NewSource(d.Source().Name(), d.Text()))
	if errString(err) != errString(d.Err()) {
		t.Fatalf("%s: error mismatch\n doc:     %v\n scratch: %v\n text: %q",
			label, d.Err(), err, d.Text())
	}
	if err == nil && !ast.Equal(val, d.Value()) {
		t.Fatalf("%s: value mismatch\n doc:     %s\n scratch: %s\n text: %q",
			label, ast.Format(d.Value()), ast.Format(val), d.Text())
	}
	return stats
}

// calcInput builds a deterministic, well-formed calc expression of at
// least n bytes.
func calcInput(r *rand.Rand, n int) string {
	var b strings.Builder
	b.WriteString(fmt.Sprintf("%d", 1+r.Intn(99)))
	for b.Len() < n {
		switch r.Intn(4) {
		case 0:
			fmt.Fprintf(&b, " + %d", r.Intn(1000))
		case 1:
			fmt.Fprintf(&b, " - %d", r.Intn(1000))
		case 2:
			fmt.Fprintf(&b, "*%d", 1+r.Intn(99))
		default:
			fmt.Fprintf(&b, " + (%d*%d - %d)", r.Intn(50), r.Intn(50), r.Intn(50))
		}
	}
	return b.String()
}

func newCalcDocument(t *testing.T, opts Options, input string) *Document {
	t.Helper()
	prog := build(t, calcGrammar, opts)
	d := prog.NewDocument(text.NewSource("doc", input))
	if d.Err() != nil {
		t.Fatalf("initial parse: %v", d.Err())
	}
	return d
}

func TestDocumentSingleEdits(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "1 + 2*3 + (41*5)")
	steps := []struct {
		label string
		edit  Edit
	}{
		{"insert digit", Edit{Off: 4, OldLen: 0, NewLen: 1, Text: "9"}},
		{"replace operator", Edit{Off: 2, OldLen: 1, NewLen: 1, Text: "-"}},
		{"delete factor", Edit{Off: 5, OldLen: 2, NewLen: 0, Text: ""}},
		{"append at end", Edit{Off: 15, OldLen: 0, NewLen: 3, Text: "*77"}},
		{"prepend at start", Edit{Off: 0, OldLen: 0, NewLen: 4, Text: "70 -"}},
	}
	for _, s := range steps {
		if s.edit.Off+s.edit.OldLen > len(d.Text()) {
			t.Fatalf("%s: test edit out of range for %q", s.label, d.Text())
		}
		if _, _, err := d.Apply(s.edit); err != nil {
			t.Fatalf("%s: apply: %v", s.label, err)
		}
		checkAgainstScratch(t, d, s.label)
	}
}

func TestDocumentAppendAtEOF(t *testing.T) {
	// Appending is the subtle damage case: entries that matched up to the
	// old end of input and whose continuation failed on EOF must be
	// invalidated, or the reparse would reuse a root that "ends" before
	// the appended text. EOF probes are noted one past the input length
	// for exactly this reason (Parser.note).
	d := newCalcDocument(t, Optimized(), "1+2")
	for i := 0; i < 6; i++ {
		app := fmt.Sprintf("+%d", i)
		_, _, err := d.Apply(Edit{Off: len(d.Text()), NewLen: len(app), Text: app})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		checkAgainstScratch(t, d, "append")
	}
	want := "1+2+0+1+2+3+4+5"
	if d.Text() != want {
		t.Fatalf("text = %q, want %q", d.Text(), want)
	}
}

func TestDocumentBatchedEdits(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "10 + 20*30 + (40*50 - 60)")
	// Deliberately out of order; Apply sorts. Offsets are pre-edit.
	_, stats, err := d.Apply(
		Edit{Off: 17, OldLen: 2, NewLen: 1, Text: "7"},
		Edit{Off: 0, OldLen: 2, NewLen: 3, Text: "111"},
		Edit{Off: 7, OldLen: 0, NewLen: 1, Text: "0"},
	)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	want := "111 + 200*30 + (40*7 - 60)"
	if d.Text() != want {
		t.Fatalf("text = %q, want %q", d.Text(), want)
	}
	checkAgainstScratch(t, d, "batched")
	if stats.MemoInvalidated == 0 {
		t.Fatalf("batched edits invalidated no entries: %+v", stats)
	}

	// Two insertions at the same offset apply in argument order.
	d2 := newCalcDocument(t, Optimized(), "1+2")
	if _, _, err := d2.Apply(
		Edit{Off: 2, NewLen: 1, Text: "3"},
		Edit{Off: 2, NewLen: 1, Text: "4"},
	); err != nil {
		t.Fatalf("same-offset inserts: %v", err)
	}
	if d2.Text() != "1+342" {
		t.Fatalf("text = %q, want %q", d2.Text(), "1+342")
	}
	checkAgainstScratch(t, d2, "same-offset inserts")
}

func TestDocumentEditValidation(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "1+2")
	before := d.Text()
	cases := []struct {
		label string
		edits []Edit
	}{
		{"negative offset", []Edit{{Off: -1, NewLen: 1, Text: "x"}}},
		{"out of bounds", []Edit{{Off: 2, OldLen: 5, NewLen: 0}}},
		{"length mismatch", []Edit{{Off: 0, NewLen: 3, Text: "xx"}}},
		{"overlap", []Edit{{Off: 0, OldLen: 2, NewLen: 2, Text: "34"}, {Off: 1, OldLen: 1, NewLen: 1, Text: "5"}}},
	}
	for _, c := range cases {
		if _, _, err := d.Apply(c.edits...); err == nil {
			t.Fatalf("%s: Apply accepted invalid edits", c.label)
		}
		if d.Text() != before {
			t.Fatalf("%s: failed Apply mutated the document to %q", c.label, d.Text())
		}
	}
	// The document is still usable after rejected edits.
	if _, _, err := d.Apply(Edit{Off: 3, NewLen: 2, Text: "*4"}); err != nil {
		t.Fatalf("apply after rejections: %v", err)
	}
	checkAgainstScratch(t, d, "after rejections")
}

func TestDocumentApplyNoEdits(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "1+2")
	v, stats, err := d.Apply()
	if err != nil || !ast.Equal(v, d.Value()) || stats != d.Stats() {
		t.Fatalf("empty Apply changed the result: %v %v", v, err)
	}
}

func TestDocumentErrorThenFix(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "12 + 34*56")
	// Break it: "12 ? 34*56" is a syntax error.
	_, _, err := d.Apply(Edit{Off: 3, OldLen: 1, NewLen: 1, Text: "?"})
	if err == nil {
		t.Fatal("edited document must fail to parse")
	}
	checkAgainstScratch(t, d, "broken")
	if d.Value() != nil {
		t.Fatal("failed document retains a value")
	}
	// Fix it again; incremental reuse must resume afterwards.
	if _, _, err := d.Apply(Edit{Off: 3, OldLen: 1, NewLen: 1, Text: "-"}); err != nil {
		t.Fatalf("fixing edit: %v", err)
	}
	checkAgainstScratch(t, d, "fixed")
	_, stats, err := d.Apply(Edit{Off: 0, OldLen: 1, NewLen: 1, Text: "9"})
	if err != nil {
		t.Fatalf("post-fix edit: %v", err)
	}
	if stats.MemoReused == 0 {
		t.Fatalf("no reuse after error recovery: %+v", stats)
	}
}

func TestDocumentReuseCounters(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	input := calcInput(r, 8<<10)
	d := newCalcDocument(t, Optimized(), input)
	fullStats := d.Stats()

	// A one-byte edit in the middle: most of the table must survive, the
	// tail must relocate, and the neighbourhood of the edit must die.
	off := len(input) / 2
	for input[off] < '0' || input[off] > '9' {
		off++
	}
	_, stats, err := d.Apply(Edit{Off: off, NewLen: 1, Text: "7"})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	checkAgainstScratch(t, d, "middle insert")
	if stats.MemoReused == 0 || stats.MemoInvalidated == 0 || stats.MemoRelocated == 0 {
		t.Fatalf("expected all reuse counters nonzero, got %+v", stats)
	}
	// The point of the exercise: the incremental pass re-derives a small
	// fraction of what the full parse computed.
	if stats.Calls*4 > fullStats.Calls {
		t.Fatalf("incremental apply made %d calls, full parse %d — too little reuse",
			stats.Calls, fullStats.Calls)
	}
	if s := stats.String(); !strings.Contains(s, "reused=") {
		t.Fatalf("Stats.String does not render reuse counters: %s", s)
	}
	// A from-scratch parse's Stats never report reuse.
	if scratch := checkAgainstScratch(t, d, "scratch"); scratch.MemoReused != 0 ||
		scratch.MemoInvalidated != 0 || scratch.MemoRelocated != 0 {
		t.Fatalf("scratch parse reports reuse: %+v", scratch)
	}
}

func TestDocumentDamageFallback(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "1 + 2*3")
	// Replacing most of the document exceeds the damage threshold; the
	// apply must fall back to a full reparse (observable as zero reuse).
	_, stats, err := d.Apply(Edit{Off: 0, OldLen: 5, NewLen: 5, Text: "7 - 6"})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if stats.MemoReused != 0 || stats.MemoRelocated != 0 {
		t.Fatalf("threshold fallback still reused entries: %+v", stats)
	}
	checkAgainstScratch(t, d, "fallback")
}

func TestDocumentGenerationWrap(t *testing.T) {
	d := newCalcDocument(t, Optimized(), "1+2*3")
	d.gens = math.MaxUint16 // white box: simulate 65535 applies
	_, stats, err := d.Apply(Edit{Off: 0, OldLen: 1, NewLen: 1, Text: "9"})
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if d.gens != 0 {
		t.Fatalf("generation wrap did not force a full reparse (gens=%d)", d.gens)
	}
	if stats.MemoReused != 0 {
		t.Fatalf("wrap fallback reused entries: %+v", stats)
	}
	checkAgainstScratch(t, d, "wrap")
}

func TestDocumentOtherEnginesFallBack(t *testing.T) {
	for _, opts := range []Options{Backtracking(), NaivePackrat()} {
		d := newCalcDocument(t, opts, "1 + 2*3 + 4")
		_, stats, err := d.Apply(Edit{Off: 4, NewLen: 1, Text: "5"})
		if err != nil {
			t.Fatalf("%+v: apply: %v", opts, err)
		}
		if stats.MemoReused != 0 || stats.MemoRelocated != 0 || stats.MemoInvalidated != 0 {
			t.Fatalf("%+v: non-chunked engine reported reuse: %+v", opts, stats)
		}
		checkAgainstScratch(t, d, "non-chunked engine")
	}
}

// TestDocumentDirectoryInvariants white-boxes the in-place splice: after
// every apply the directory window is exactly the text plus its EOF
// position, nothing stale survives in its spare capacity, the side
// arrays run parallel to it, and each row's live count and longest entry
// describe the row (a nil row has count 0, a row with count 0 is nil).
func TestDocumentDirectoryInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := newCalcDocument(t, Optimized(), calcInput(r, 512))
	check := func(label string) {
		t.Helper()
		ps := d.ps
		if got, want := len(ps.chunks), len(d.Text())+1; got != want {
			t.Fatalf("%s: directory window %d, want %d", label, got, want)
		}
		if len(ps.rowMax) != len(ps.chunks) || len(ps.rowLive) != len(ps.chunks) {
			t.Fatalf("%s: side arrays %d/%d, directory %d", label,
				len(ps.rowMax), len(ps.rowLive), len(ps.chunks))
		}
		for j, row := range ps.chunks[len(ps.chunks):cap(ps.chunks)] {
			if row != nil {
				t.Fatalf("%s: stale row %d past the window", label, len(ps.chunks)+j)
			}
		}
		for _, side := range [][]int32{ps.rowMax, ps.rowLive} {
			for j, v := range side[len(side):cap(side)] {
				if v != 0 {
					t.Fatalf("%s: stale side-array slot %d past the window", label, len(side)+j)
				}
			}
		}
		rows, chunks := 0, 0
		for pos, row := range ps.chunks {
			live, longest := 0, int32(0)
			for _, chunk := range row {
				if chunk == nil {
					continue
				}
				chunkLive := 0
				for _, e := range chunk {
					if e.state != memoEmpty {
						chunkLive++
						longest = max(longest, e.len)
					}
				}
				if chunkLive == 0 {
					t.Fatalf("%s: row %d links an empty chunk", label, pos)
				}
				live += chunkLive
				chunks++
			}
			if (row == nil) != (ps.rowLive[pos] == 0) || int(ps.rowLive[pos]) != live {
				t.Fatalf("%s: row %d has %d live entries (nil=%v), rowLive says %d",
					label, pos, live, row == nil, ps.rowLive[pos])
			}
			if ps.rowMax[pos] < longest || (row == nil && ps.rowMax[pos] != 0) {
				t.Fatalf("%s: row %d rowMax %d, longest entry %d", label, pos, ps.rowMax[pos], longest)
			}
			if row != nil {
				rows++
			}
		}
		if rows != d.liveRows || chunks != d.liveChunks {
			t.Fatalf("%s: live rows/chunks %d/%d, document counts %d/%d",
				label, rows, chunks, d.liveRows, d.liveChunks)
		}
	}
	check("initial parse")
	for i := 0; i < 40; i++ {
		applyRandomEdit(t, r, d)
		check(fmt.Sprintf("apply %d", i))
	}
}

// referenceRemapCounts is the full-scan remap the splice replaced, kept
// as the oracle for its counters: it reads every entry of every row and
// reports, without changing anything, how many entries the edits
// invalidate, how many survivors shift, and how many rows and chunks
// keep a live entry.
func referenceRemapCounts(d *Document, edits []Edit) (invalidated, relocated, liveRows, liveChunks int) {
	ps := d.ps
	ei, delta := 0, 0
	for pos, row := range ps.chunks {
		for ei < len(edits) && pos >= edits[ei].Off+edits[ei].OldLen {
			delta += edits[ei].NewLen - edits[ei].OldLen
			ei++
		}
		if row == nil {
			continue
		}
		inside := ei < len(edits) && pos >= edits[ei].Off
		limit := math.MaxInt
		if ei < len(edits) {
			limit = edits[ei].Off
		}
		rowLive := 0
		for ci, chunk := range row {
			if chunk == nil {
				continue
			}
			chunkLive := 0
			for k, e := range chunk {
				if e.state == memoEmpty {
					continue
				}
				if inside || pos+int(e.len)+int(ps.prodLook[ci*chunkSize+k]) > limit {
					invalidated++
					continue
				}
				chunkLive++
			}
			if chunkLive > 0 {
				liveChunks++
			}
			rowLive += chunkLive
		}
		if rowLive == 0 {
			continue
		}
		liveRows++
		if delta != 0 {
			relocated += rowLive
		}
	}
	return invalidated, relocated, liveRows, liveChunks
}

// TestDocumentCountersMatchFullScan holds the splice's counters to the
// full-scan reference over random single and batched edits:
// MemoInvalidated and MemoRelocated must count the same entries, and
// MemoBytes must charge the same live table plus what the apply stored.
func TestDocumentCountersMatchFullScan(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(300 + seed))
		d := newCalcDocument(t, Optimized(), calcInput(r, 1024+r.Intn(2048)))
		for step := 0; step < 60; step++ {
			// One to three non-overlapping edits, drawn left to right and
			// passed in shuffled order.
			var edits []Edit
			for at, n := 0, 1+r.Intn(3); n > 0; n-- {
				e, ok := wellFormedEdit(r, d.Text(), at)
				if !ok {
					break
				}
				edits = append(edits, e)
				at = e.Off + e.OldLen
			}
			r.Shuffle(len(edits), func(i, j int) { edits[i], edits[j] = edits[j], edits[i] })
			sorted, _, err := normalizeEdits(d.Text(), edits)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			inv, rel, rows, chunks := referenceRemapCounts(d, sorted)
			gens := d.gens
			_, stats, _ := d.Apply(edits...)
			checkAgainstScratch(t, d, fmt.Sprintf("seed %d step %d", seed, step))
			if d.gens != gens+1 {
				// Well-formed small edits never need the full-reparse
				// fallback; taking it would hide a wrong remap behind a
				// correct from-scratch result.
				t.Fatalf("seed %d step %d edits %+v: Apply fell back to a full reparse", seed, step, sorted)
			}
			wantBytes := (chunks+stats.ChunksAllocated)*chunkSize*memoEntrySize +
				(rows+stats.ChunkRows)*d.ps.chunkCount*8
			if stats.MemoInvalidated != inv || stats.MemoRelocated != rel || stats.MemoBytes != wantBytes {
				t.Fatalf("seed %d step %d edits %+v: invalidated/relocated/bytes %d/%d/%d, full scan %d/%d/%d",
					seed, step, sorted, stats.MemoInvalidated, stats.MemoRelocated, stats.MemoBytes,
					inv, rel, wantBytes)
			}
		}
	}
}

// wellFormedEdit draws an edit within 400 bytes after offset at that
// keeps a calc expression well formed. At a digit it inserts digits or a
// "N+" term, replaces the digit, or deletes it when a digit follows; at
// a binary operator it inserts a "*N " factor, which the entries ending
// just before the operator (and peeking at it) must not survive. ok is
// false when no such position is left.
func wellFormedEdit(r *rand.Rand, txt string, at int) (e Edit, ok bool) {
	var cands []int
	for p := at; p < len(txt) && p < at+400; p++ {
		if c := txt[p]; c >= '0' && c <= '9' || c == '+' || c == '-' || c == '*' {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return Edit{}, false
	}
	p := cands[r.Intn(len(cands))]
	digit := string(rune('0' + r.Intn(10)))
	if c := txt[p]; c < '0' || c > '9' {
		return Edit{Off: p, NewLen: 3, Text: "*" + digit + " "}, true
	}
	switch r.Intn(4) {
	case 0:
		ins := strings.Repeat(digit, 1+r.Intn(3))
		return Edit{Off: p, NewLen: len(ins), Text: ins}, true
	case 1:
		return Edit{Off: p, NewLen: 2, Text: digit + "+"}, true
	case 2:
		if p+1 < len(txt) && txt[p+1] >= '0' && txt[p+1] <= '9' {
			return Edit{Off: p, OldLen: 1}, true
		}
	}
	return Edit{Off: p, OldLen: 1, NewLen: 1, Text: digit}, true
}

// applyRandomEdit performs one random insert/delete/replace drawn from
// the calc alphabet and asserts scratch equivalence. Parse errors are
// fine — broken intermediate states are what editors produce — but the
// error must match the oracle's.
func applyRandomEdit(t *testing.T, r *rand.Rand, d *Document) {
	t.Helper()
	txt := d.Text()
	const alphabet = "0123456789+-*() "
	var e Edit
	switch r.Intn(3) {
	case 0: // insert
		n := 1 + r.Intn(4)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		e = Edit{Off: r.Intn(len(txt) + 1), NewLen: n, Text: b.String()}
	case 1: // delete
		if len(txt) == 0 {
			return
		}
		off := r.Intn(len(txt))
		n := 1 + r.Intn(4)
		if off+n > len(txt) {
			n = len(txt) - off
		}
		e = Edit{Off: off, OldLen: n}
	default: // replace one byte
		if len(txt) == 0 {
			return
		}
		e = Edit{Off: r.Intn(len(txt)), OldLen: 1, NewLen: 1,
			Text: string(alphabet[r.Intn(len(alphabet))])}
	}
	if _, _, err := d.Apply(e); err != nil && d.Err() == nil {
		t.Fatalf("apply %+v: %v", e, err)
	}
	checkAgainstScratch(t, d, fmt.Sprintf("random edit %+v", e))
}

// TestDocumentRandomizedEquivalence is the in-process cousin of
// FuzzIncrementalParse: long random edit scripts, every step checked
// against the scratch oracle, with the memo footprint held to the
// documented budget (a constant factor of a from-scratch parse).
func TestDocumentRandomizedEquivalence(t *testing.T) {
	scripts := 12
	steps := 60
	if testing.Short() {
		scripts, steps = 4, 25
	}
	for seed := 0; seed < scripts; seed++ {
		r := rand.New(rand.NewSource(int64(100 + seed)))
		d := newCalcDocument(t, Optimized(), calcInput(r, 256+r.Intn(2048)))
		for i := 0; i < steps; i++ {
			applyRandomEdit(t, r, d)
			if d.Err() == nil {
				sStats := checkAgainstScratch(t, d, "budget probe")
				budget := incrementalGrowthFactor*sStats.MemoBytes + incrementalGrowthSlack + sStats.MemoBytes
				if d.Stats().MemoBytes > budget {
					t.Fatalf("seed %d step %d: memo footprint %d exceeds budget %d (scratch %d)",
						seed, i, d.Stats().MemoBytes, budget, sStats.MemoBytes)
				}
			}
		}
	}
}
