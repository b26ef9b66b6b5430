package workload

import (
	"strings"
	"testing"

	"modpeg/internal/ast"
	"modpeg/internal/text"
	"modpeg/internal/vm"
)

func TestSQLQueryCorpusParses(t *testing.T) {
	prog := progFor(t, "sql")
	for _, size := range []int{20, 500, 5000, 50000} {
		q := SQLQuery(Config{Seed: int64(size), Size: size})
		if size >= 500 && len(q) < size {
			t.Errorf("SQLQuery(%d) produced only %d bytes", size, len(q))
		}
		mustParse(t, prog, q, "sql")
	}
	if SQLQuery(Config{Seed: 3, Size: 4000}) != SQLQuery(Config{Seed: 3, Size: 4000}) {
		t.Fatal("SQLQuery not deterministic")
	}
}

func TestJavaSQLCorpusParses(t *testing.T) {
	prog := progFor(t, "demo.javasql.top")
	src := JavaSQLProgram(Config{Seed: 11, Size: 8000})
	if !strings.Contains(src, "`SELECT") {
		t.Fatal("corpus contains no embedded queries")
	}
	mustParse(t, prog, src, "javasql")
	if JavaSQLProgram(Config{Seed: 11, Size: 8000}) != src {
		t.Fatal("JavaSQLProgram not deterministic")
	}
}

// TestJavaEditPairs applies each generated edit pair to a live document
// and checks that the edited text still parses, that the inverse restores
// the original text byte-for-byte, and that every incremental result —
// insert and undo — is what a fresh parse of the same text produces
// (value by ast.Equal, error by its text). java.core has the deepest
// nesting and the largest lookahead watermarks of the bundled grammars,
// so it is the hardest test of which memo entries an edit may keep.
// Besides the benchmarks' mid-document pairs, blob pastes near the start
// and near the end of the document move almost all or almost none of the
// memo table.
func TestJavaEditPairs(t *testing.T) {
	prog := progFor(t, "java.core")
	src := JavaProgram(Config{Seed: 5, Size: 16000})
	const line = "        state = state + 1;\n"
	paste := strings.Repeat(line, len(src)/10/len(line)+1)
	start := strings.Index(src, "this.state = seed;\n") + len("this.state = seed;\n")
	end := strings.LastIndex(src, ";\n") + 2
	pairs := map[string]EditPair{
		"byte":       JavaEditByte(src),
		"line":       JavaEditLine(src),
		"blob":       JavaEditBlob(src, 0.10),
		"blob-start": pair(start, paste),
		"blob-end":   pair(end, paste),
	}
	if blob := pairs["blob"]; blob.Insert.NewLen < len(src)/10 {
		t.Fatalf("blob insert is only %d bytes for a %d-byte document", blob.Insert.NewLen, len(src))
	}
	if start < len("this.state = seed;\n") || end > len(src)-len("    }\n}\n") {
		t.Fatalf("blob anchors %d and %d are not near the ends of a %d-byte document", start, end, len(src))
	}
	for name, p := range pairs {
		d := prog.NewDocument(text.NewSource("t", src))
		if d.Err() != nil {
			t.Fatalf("base corpus does not parse: %v", d.Err())
		}
		_, stats, err := d.Apply(p.Insert)
		if err != nil || d.Err() != nil {
			t.Fatalf("%s insert: apply=%v parse=%v", name, err, d.Err())
		}
		if stats.MemoReused == 0 {
			t.Fatalf("%s insert reused no memo entry: %+v", name, stats)
		}
		sameAsFreshParse(t, prog, d, name+" insert")
		if _, _, err := d.Apply(p.Delete); err != nil || d.Err() != nil {
			t.Fatalf("%s delete: apply=%v parse=%v", name, err, d.Err())
		}
		sameAsFreshParse(t, prog, d, name+" delete")
		if d.Text() != src {
			t.Fatalf("%s pair does not round-trip the text", name)
		}
	}
}

// sameAsFreshParse asserts that the document's last result equals a
// from-scratch parse of its text: the value by ast.Equal, the error by
// its text.
func sameAsFreshParse(t *testing.T, prog *vm.Program, d *vm.Document, label string) {
	t.Helper()
	val, _, err := prog.Parse(text.NewSource(d.Source().Name(), d.Text()))
	if errText(err) != errText(d.Err()) {
		t.Fatalf("%s: error %q, fresh parse %q", label, errText(d.Err()), errText(err))
	}
	if !ast.Equal(val, d.Value()) {
		t.Fatalf("%s: value differs from a fresh parse", label)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
