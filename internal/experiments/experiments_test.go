package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"modpeg/internal/vm"
)

// fast returns options tuned for test speed (tiny corpora, minimal
// windows); the shapes the assertions check hold regardless.
func fast() Options {
	return Options{InputKB: 6, MinTime: 5 * time.Millisecond}
}

func cell(t Table, row, col int) string { return t.Rows[row][col] }

func TestTable1Shapes(t *testing.T) {
	tbl := Table1()
	if tbl.ID != "Table 1" || len(tbl.Rows) < 20 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var sawExt, sawComposed bool
	for _, row := range tbl.Rows {
		if row[0] == "java.ext.assert" {
			sawExt = true
			if row[2] != "1" { // one modify clause
				t.Errorf("assert ext modifies = %s", row[2])
			}
			if row[5] != "1" { // one += addition
				t.Errorf("assert ext adds = %s", row[5])
			}
		}
		if strings.HasPrefix(row[0], "composed:java.full") {
			sawComposed = true
		}
	}
	if !sawExt || !sawComposed {
		t.Fatal("expected extension and composed rows")
	}
	out := tbl.Render()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "module") {
		t.Fatalf("render = %q", out[:80])
	}
}

func TestTable2Shapes(t *testing.T) {
	tbl := Table2(fast())
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	if cell(tbl, 0, 0) != "all-on" || cell(tbl, 0, 2) != "1.00x" {
		t.Fatalf("baseline row = %v", tbl.Rows[0])
	}
	// The headline claims: disabling transient marking inflates the memo
	// table, and the naive configuration is slower than all-on.
	var allOnMemo, noTransientMemo int
	for _, row := range tbl.Rows {
		switch row[0] {
		case "all-on":
			if _, err := fmtSscan(row[3], &allOnMemo); err != nil {
				t.Fatal(err)
			}
		case "no-transient-marking":
			if _, err := fmtSscan(row[3], &noTransientMemo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if noTransientMemo <= allOnMemo {
		t.Fatalf("no-transient memo %d must exceed all-on %d", noTransientMemo, allOnMemo)
	}
}

func TestTable3Shapes(t *testing.T) {
	tbl := Table3(fast())
	if len(tbl.Rows) != 16 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	// Every corpus must have its optimized engine at rel-time 1.00x.
	count := 0
	for _, row := range tbl.Rows {
		if row[1] == "optimized" {
			if row[3] != "1.00x" {
				t.Fatalf("optimized rel-time = %v", row)
			}
			count++
		}
		if row[1] == "backtracking" && row[4] != "0" {
			t.Fatalf("backtracking memo must be 0: %v", row)
		}
	}
	if count != 4 {
		t.Fatalf("optimized rows = %d", count)
	}
}

func TestTable4Shapes(t *testing.T) {
	tbl := Table4(fast())
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	if cell(tbl, 2, 1) != "1.00x" {
		t.Fatalf("base overhead = %v", tbl.Rows[2])
	}
}

func TestFig1Shapes(t *testing.T) {
	tbl := Fig1(Options{InputKB: 4, MinTime: 5 * time.Millisecond})
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig2Shapes(t *testing.T) {
	tbl := Fig2(fast())
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	// Optimized must use less memo per byte than naive at each size.
	for i := 0; i < len(tbl.Rows); i += 2 {
		var naive, opt float64
		if _, err := fmtSscan(tbl.Rows[i][3], &naive); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(tbl.Rows[i+1][3], &opt); err != nil {
			t.Fatal(err)
		}
		if opt >= naive {
			t.Fatalf("optimized memo/byte %.1f must beat naive %.1f", opt, naive)
		}
	}
}

func TestFig3Shapes(t *testing.T) {
	tbl := Fig3(Options{MinTime: 4 * time.Millisecond})
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Backtracking calls must grow superlinearly with depth while packrat
	// calls stay roughly linear.
	var backCalls, packCalls []float64
	for _, row := range tbl.Rows {
		var c float64
		if _, err := fmtSscan(row[2], &c); err != nil {
			t.Fatal(err)
		}
		if row[1] == "backtracking" {
			backCalls = append(backCalls, c)
		} else {
			packCalls = append(packCalls, c)
		}
	}
	// depth 8 -> 20: backtracking should blow up by far more than the
	// depth ratio; packrat by roughly the depth ratio.
	if backCalls[len(backCalls)-1]/backCalls[0] < 100 {
		t.Fatalf("backtracking growth too small: %v", backCalls)
	}
	if packCalls[len(packCalls)-1]/packCalls[0] > 10 {
		t.Fatalf("packrat growth too large: %v", packCalls)
	}
}

func TestByIDAndAll(t *testing.T) {
	if _, err := ByID("nope", fast()); err == nil {
		t.Fatal("unknown id must fail")
	}
	tbl, err := ByID("TABLE1", fast())
	if err != nil || tbl.ID != "Table 1" {
		t.Fatalf("ByID: %v", err)
	}
	for _, id := range []string{"table2", "table3", "table4", "table5", "table7", "limits", "table8", "incremental", "table9", "telemetry", "table11", "capacity", "fig1", "fig2", "fig3", "hotprods"} {
		if _, err := ByID(id, Options{InputKB: 2, MinTime: time.Millisecond}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	// All with minimal settings must produce 13 tables.
	if got := All(Options{InputKB: 2, MinTime: time.Millisecond}); len(got) != 13 {
		t.Fatalf("All = %d tables", len(got))
	}
}

// fmtSscan is a tiny wrapper so tests read naturally.
func fmtSscan(s string, v any) (int, error) {
	return sscan(s, v)
}

func sscan(s string, v any) (int, error) { return fmt.Sscan(s, v) }

func TestTable7Shapes(t *testing.T) {
	tbl := Table7(fast())
	if tbl.ID != "Table 7" || len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	outcomes := map[string]string{}
	for _, row := range tbl.Rows {
		outcomes[row[0]] = row[2]
	}
	if outcomes["ungoverned baseline"] != "completes" ||
		outcomes["governed, zero limits"] != "completes" {
		t.Fatalf("governed/ungoverned rows: %v", outcomes)
	}
	if outcomes["memo budget (shedding)"] != "completes degraded" {
		t.Fatalf("shedding row: %v", outcomes)
	}
	if outcomes["memo budget (strict)"] != "limit error (memo-bytes)" {
		t.Fatalf("strict row: %v", outcomes)
	}
	if outcomes["call depth, 20000-deep parens"] != "limit error (call-depth)" {
		t.Fatalf("depth row: %v", outcomes)
	}
	if outcomes["1ms deadline, exponential backtracking"] != "limit error (deadline)" {
		t.Fatalf("deadline row: %v", outcomes)
	}
}

func TestTable5Shapes(t *testing.T) {
	tbl := Table5(fast())
	if tbl.ID != "Table 5" || len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	if cell(tbl, 0, 0) != "cold session per parse" || cell(tbl, 0, 2) != "1.00x" {
		t.Fatalf("baseline row = %v", tbl.Rows[0])
	}
	// The headline claim: recycling sessions sheds the per-parse
	// allocations. The reused-session row must allocate far less than the
	// cold baseline (machinery gone; only semantic values remain).
	var coldAllocs, warmAllocs float64
	fmt.Sscan(cell(tbl, 0, 3), &coldAllocs)
	fmt.Sscan(cell(tbl, 2, 3), &warmAllocs)
	if warmAllocs >= coldAllocs {
		t.Errorf("reused session allocs %v must be below cold %v", warmAllocs, coldAllocs)
	}
	out := tbl.Render()
	if !strings.Contains(out, "engine residency") {
		t.Fatalf("render = %q", out[:60])
	}
}

func TestTable8Shapes(t *testing.T) {
	tbl := Table8(fast())
	// Fast mode trims the size ladder to 4 and 16 KB; three edit shapes each.
	if tbl.ID != "Table 8" || len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	for _, row := range tbl.Rows {
		var speedup float64
		if _, err := fmt.Sscanf(row[4], "%fx", &speedup); err != nil {
			t.Fatalf("speedup cell %q: %v", row[4], err)
		}
		if speedup <= 1 {
			t.Errorf("%s KB / %s: incremental apply is not faster than full reparse (%s)",
				row[0], row[1], row[4])
		}
		var relocated int
		fmt.Sscan(row[7], &relocated)
		if relocated == 0 {
			t.Errorf("%s KB / %s: no entries relocated — reuse machinery idle", row[0], row[1])
		}
	}
}

func TestTable9Shapes(t *testing.T) {
	tbl := Table9(fast())
	if tbl.ID != "Table 9" || len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d: %v", len(tbl.Rows), tbl.Notes)
	}
	if !vm.TelemetryEnabled() {
		t.Error("Table9 left the telemetry registry disabled")
	}
	for _, row := range tbl.Rows {
		for _, cell := range []string{row[5], row[6]} {
			var pct float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(cell, "+"), "%f%%", &pct); err != nil {
				t.Fatalf("overhead cell %q: %v", cell, err)
			}
		}
	}
}

func TestTable11Shapes(t *testing.T) {
	tbl := Table11(fast())
	if tbl.ID != "Table 11" {
		t.Fatalf("ID = %q", tbl.ID)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 traffic shapes (notes: %v)", len(tbl.Rows), tbl.Notes)
	}
	labels := map[string]bool{}
	for _, row := range tbl.Rows {
		labels[row[0]] = true
		if row[1] == "0" {
			t.Errorf("%s: zero achieved RPS", row[0])
		}
		if row[6] != "0" {
			t.Errorf("%s: unexpected errors against in-process server: %s", row[0], row[6])
		}
	}
	for _, want := range []string{"full corpus", "omit-values", "no-adversarial"} {
		if !labels[want] {
			t.Errorf("missing traffic shape %q", want)
		}
	}
	if !strings.Contains(tbl.Render(), "p99") {
		t.Error("render missing header")
	}
}
