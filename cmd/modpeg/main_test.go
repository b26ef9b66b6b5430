package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

func runCmd(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

func TestUsageAndUnknown(t *testing.T) {
	_, errb, code := runCmd(t, "")
	if code != 2 || !strings.Contains(errb, "commands:") {
		t.Fatalf("no-args: code=%d err=%q", code, errb)
	}
	_, errb, code = runCmd(t, "", "frobnicate")
	if code != 2 || !strings.Contains(errb, "unknown command") {
		t.Fatalf("unknown: code=%d err=%q", code, errb)
	}
	out, _, code := runCmd(t, "", "help")
	if code != 0 || !strings.Contains(out, "modules") {
		t.Fatalf("help: code=%d", code)
	}
}

// TestUsageListsEveryFlag holds `modpeg help` to the flags each command
// defines: every flag in `modpeg <cmd> -h`'s usage error (its FlagSet)
// must appear as a whole token in that command's block of usage().
func TestUsageListsEveryFlag(t *testing.T) {
	var help bytes.Buffer
	usage(&help)
	blocks := map[string]string{} // command → its lines of usage()
	head := ""
	for _, line := range strings.Split(help.String(), "\n") {
		if strings.HasPrefix(line, "  ") && line[2] != ' ' {
			head = strings.Fields(line)[0]
		}
		blocks[head] += line + "\n"
	}
	flagName := regexp.MustCompile(`\[(-[\w-]+)`)
	for _, cmd := range []string{"stats", "print", "check", "parse", "profile", "generate", "experiment", "serve", "loadtest", "fmt"} {
		_, errb, code := runCmd(t, "", cmd, "-h")
		if code != 1 || !strings.Contains(errb, "usage: modpeg "+cmd+" ") {
			t.Errorf("%s -h: code=%d err=%q, want its usage error", cmd, code, errb)
		}
		tokens := map[string]bool{}
		for _, tok := range strings.FieldsFunc(blocks[cmd], func(r rune) bool {
			return unicode.IsSpace(r) || strings.ContainsRune("[](),;/", r)
		}) {
			tokens[tok] = true
		}
		for _, m := range flagName.FindAllStringSubmatch(errb, -1) {
			if !tokens[m[1]] {
				t.Errorf("usage() lists no %s for %s; its usage error does:\n%s", m[1], cmd, errb)
			}
		}
	}
}

func TestModules(t *testing.T) {
	out, _, code := runCmd(t, "", "modules")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	for _, frag := range []string{"calc.core", "java.full", "* json.value"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestStats(t *testing.T) {
	out, errb, code := runCmd(t, "", "stats", "calc.full")
	if code != 0 {
		t.Fatalf("code = %d, err = %s", code, errb)
	}
	for _, frag := range []string{"module", "calc.core", "composed:", "optimized:", "optimization report"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	_, _, code = runCmd(t, "", "stats")
	if code != 1 {
		t.Fatal("missing arg must fail")
	}
}

func TestPrint(t *testing.T) {
	out, _, code := runCmd(t, "", "print", "calc.core")
	if code != 0 || !strings.Contains(out, "calc.core.Sum") {
		t.Fatalf("print failed: %d\n%s", code, out)
	}
	opt, _, code := runCmd(t, "", "print", "-optimized", "calc.core")
	if code != 0 || !strings.Contains(opt, "leftrec") {
		t.Fatalf("optimized print failed: %d", code)
	}
}

func TestCheck(t *testing.T) {
	out, _, code := runCmd(t, "", "check", "java.full")
	if code != 0 || !strings.Contains(out, "ok:") {
		t.Fatalf("check: code=%d out=%q", code, out)
	}
	_, errb, code := runCmd(t, "", "check", "no.such")
	if code != 1 || !strings.Contains(errb, "no.such") {
		t.Fatalf("check unknown: code=%d err=%q", code, errb)
	}
}

func TestParseStdinAndFile(t *testing.T) {
	out, _, code := runCmd(t, "1+2*3", "parse", "calc.core")
	if code != 0 || !strings.Contains(out, `(Add (Num "1") (Mul (Num "2") (Num "3")))`) {
		t.Fatalf("parse stdin: code=%d out=%q", code, out)
	}

	dir := t.TempDir()
	file := filepath.Join(dir, "in.calc")
	if err := os.WriteFile(file, []byte("2**5"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code = runCmd(t, "", "parse", "-indent", "-stats", "calc.full", file)
	if code != 0 || !strings.Contains(out, "Pow") || !strings.Contains(out, "stats:") {
		t.Fatalf("parse file: code=%d out=%q", code, out)
	}

	_, errb, code := runCmd(t, "1+", "parse", "calc.core")
	if code != 1 || !strings.Contains(errb, "syntax error") {
		t.Fatalf("parse error: code=%d err=%q", code, errb)
	}
	_, _, code = runCmd(t, "", "parse", "calc.core", filepath.Join(dir, "missing"))
	if code != 1 {
		t.Fatal("missing file must fail")
	}
}

func TestParseWithLimits(t *testing.T) {
	// Generous limits: the parse completes and reports stats.
	out, errb, code := runCmd(t, "1+2*3", "parse", "-stats",
		"-timeout", "10s", "-max-memo", "1048576", "-max-depth", "10000", "calc.core")
	if code != 0 || !strings.Contains(out, "(Add") || !strings.Contains(out, "stats:") {
		t.Fatalf("governed parse: code=%d out=%q err=%q", code, out, errb)
	}
	// A depth limit a nested input blows: typed limit failure, exit 1.
	deep := strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000)
	_, errb, code = runCmd(t, deep, "parse", "-max-depth", "64", "calc.core")
	if code != 1 || !strings.Contains(errb, "call depth") {
		t.Fatalf("depth limit: code=%d err=%q", code, errb)
	}
	// Strict memo budget: hard failure instead of shedding.
	big := strings.Repeat("1+", 4000) + "1"
	_, errb, code = runCmd(t, big, "parse", "-max-memo", "512", "-strict", "calc.core")
	if code != 1 || !strings.Contains(errb, "memo footprint") {
		t.Fatalf("strict memo: code=%d err=%q", code, errb)
	}
	// The same budget without -strict degrades and still prints the AST.
	out, errb, code = runCmd(t, big, "parse", "-max-memo", "512", "-stats", "calc.core")
	if code != 0 || !strings.Contains(out, "(Add") || !strings.Contains(out, "sheds=1") {
		t.Fatalf("shedding parse: code=%d out=%q err=%q", code, out, errb)
	}
}

// TestParseLimitsApplyToEveryHook pins that -profile and -trace parse
// under the same limits as a plain parse: the flags pick only the hook.
func TestParseLimitsApplyToEveryHook(t *testing.T) {
	for _, flag := range []string{"-stats", "-profile", "-trace"} {
		_, errb, code := runCmd(t, "((((1+2))))*3", "parse", flag, "-max-depth", "2", "calc.core")
		if code != 1 || !strings.Contains(errb, "call depth") {
			t.Errorf("parse %s -max-depth 2: code=%d err=%q, want the depth limit", flag, code, errb)
		}
	}
}

// TestParseTraceStats pins that -stats reports the traced parse itself.
func TestParseTraceStats(t *testing.T) {
	out, errb, code := runCmd(t, "1+2", "parse", "-trace", "-stats", "calc.core")
	if code != 0 || !strings.Contains(out, "stats: calls=") || strings.Contains(out, "stats: calls=0 ") {
		t.Fatalf("parse -trace -stats: code=%d err=%q out=%q, want non-zero calls", code, errb, out)
	}
}

func TestParseIncremental(t *testing.T) {
	dir := t.TempDir()
	edits := filepath.Join(dir, "edits.txt")
	script := `# turn 1+2 into 10+2*3, then into 10+2*34
@1 0 "0"
@3 0 "*3"

@6 0 "4"
`
	if err := os.WriteFile(edits, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runCmd(t, "1+2", "parse", "-incremental", "-edits", edits, "-stats", "calc.core")
	if code != 0 {
		t.Fatalf("incremental parse: code=%d err=%q", code, errb)
	}
	if !strings.Contains(out, `(Add (Num "10") (Mul (Num "2") (Num "34")))`) {
		t.Fatalf("final value missing in:\n%s", out)
	}
	if !strings.Contains(out, "apply 1 (2 edits, ok):") || !strings.Contains(out, "apply 2 (1 edits, ok):") {
		t.Fatalf("per-apply stats missing in:\n%s", out)
	}

	// An edit script that leaves the document broken: syntax error, exit 1.
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("@1 1 \"?\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errb, code = runCmd(t, "1+2", "parse", "-incremental", "-edits", bad, "calc.core")
	if code != 1 || !strings.Contains(errb, "syntax error") {
		t.Fatalf("broken doc: code=%d err=%q", code, errb)
	}

	// Malformed script lines are reported with their line number.
	ugly := filepath.Join(dir, "ugly.txt")
	if err := os.WriteFile(ugly, []byte("@zero 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, errb, code = runCmd(t, "1+2", "parse", "-incremental", "-edits", ugly, "calc.core")
	if code != 1 || !strings.Contains(errb, "line 1") {
		t.Fatalf("bad script: code=%d err=%q", code, errb)
	}

	// Flag validation: -incremental needs -edits, -edits needs -incremental,
	// and resource limits are mutually exclusive with incremental mode.
	_, errb, code = runCmd(t, "1+2", "parse", "-incremental", "calc.core")
	if code != 1 || !strings.Contains(errb, "requires -edits") {
		t.Fatalf("missing -edits: code=%d err=%q", code, errb)
	}
	_, errb, code = runCmd(t, "1+2", "parse", "-edits", edits, "calc.core")
	if code != 1 || !strings.Contains(errb, "requires -incremental") {
		t.Fatalf("bare -edits: code=%d err=%q", code, errb)
	}
	_, errb, code = runCmd(t, "1+2", "parse", "-incremental", "-edits", edits, "-max-depth", "64", "calc.core")
	if code != 1 || !strings.Contains(errb, "mutually exclusive") {
		t.Fatalf("limits+incremental: code=%d err=%q", code, errb)
	}
}

func TestParseWithModuleDir(t *testing.T) {
	dir := t.TempDir()
	mod := filepath.Join(dir, "user.lang.mpeg")
	src := "module user.lang;\npublic S = $([a-z]+) !. ;\n"
	if err := os.WriteFile(mod, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runCmd(t, "hello", "parse", "-d", dir, "user.lang")
	if code != 0 || !strings.Contains(out, `"hello"`) {
		t.Fatalf("code=%d out=%q err=%q", code, out, errb)
	}
}

func TestGenerate(t *testing.T) {
	out, _, code := runCmd(t, "", "generate", "-pkg", "cp", "calc.core")
	if code != 0 || !strings.Contains(out, "package cp") {
		t.Fatalf("generate: code=%d", code)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "gen.go")
	_, _, code = runCmd(t, "", "generate", "-o", file, "json.value")
	if code != 0 {
		t.Fatal("generate to file failed")
	}
	data, err := os.ReadFile(file)
	if err != nil || !strings.Contains(string(data), "package parser") {
		t.Fatalf("written file wrong: %v", err)
	}
}

func TestExperimentCommand(t *testing.T) {
	out, errb, code := runCmd(t, "", "experiment", "-kb", "2", "-mintime", "1ms", "fig3")
	if code != 0 || !strings.Contains(out, "backtracking") {
		t.Fatalf("experiment: code=%d err=%q", code, errb)
	}
	_, _, code = runCmd(t, "", "experiment", "bogus")
	if code != 1 {
		t.Fatal("unknown experiment must fail")
	}
	_, _, code = runCmd(t, "", "experiment")
	if code != 1 {
		t.Fatal("missing arg must fail")
	}
	out, _, code = runCmd(t, "", "experiment", "-kb", "2", "-mintime", "1ms", "table1")
	if code != 0 || !strings.Contains(out, "calc.core") {
		t.Fatalf("table1: code=%d", code)
	}
	out, _, code = runCmd(t, "", "experiment", "-kb", "4", "-mintime", "1ms", "table5")
	if code != 0 || !strings.Contains(out, "engine residency") || !strings.Contains(out, "reused session") {
		t.Fatalf("table5: code=%d out=%q", code, out)
	}
	out, _, code = runCmd(t, "", "experiment", "-kb", "4", "-mintime", "1ms", "limits")
	if code != 0 || !strings.Contains(out, "resource governance") ||
		!strings.Contains(out, "limit error (deadline)") {
		t.Fatalf("limits: code=%d out=%q", code, out)
	}
}

func TestFmtCommand(t *testing.T) {
	out, errb, code := runCmd(t, "module m;\npublic   S =  \"x\"   /   \"y\" ;", "fmt")
	if code != 0 || !strings.Contains(out, `public S = "x" / "y" ;`) {
		t.Fatalf("fmt stdin: code=%d out=%q err=%q", code, out, errb)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "m.mpeg")
	if err := os.WriteFile(file, []byte("module m;\nS=\"x\";"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, code = runCmd(t, "", "fmt", "-w", file)
	if code != 0 {
		t.Fatal("fmt -w failed")
	}
	data, _ := os.ReadFile(file)
	if !strings.Contains(string(data), `S = "x" ;`) {
		t.Fatalf("file = %q", data)
	}
	// Formatting is idempotent.
	out1, _, _ := runCmd(t, "", "fmt", file)
	if out1 != string(data) {
		t.Fatalf("not idempotent: %q vs %q", out1, data)
	}
	_, _, code = runCmd(t, "not a module", "fmt")
	if code != 1 {
		t.Fatal("bad module must fail")
	}
	_, _, code = runCmd(t, "", "fmt", filepath.Join(dir, "missing.mpeg"))
	if code != 1 {
		t.Fatal("missing file must fail")
	}
}

func TestParseTraceFlag(t *testing.T) {
	out, _, code := runCmd(t, "1+2", "parse", "-trace", "calc.core")
	if code != 0 || !strings.Contains(out, "Program @0 {") || !strings.Contains(out, "(Add") {
		t.Fatalf("trace parse: code=%d out=%q", code, out)
	}
}

func TestCheckLintFlag(t *testing.T) {
	dir := t.TempDir()
	mod := filepath.Join(dir, "smelly.mpeg")
	src := "module smelly;\npublic S = \"in\" / \"int\" ;\nDead = \"d\" ;\n"
	if err := os.WriteFile(mod, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCmd(t, "", "check", "-lint", "-d", dir, "smelly")
	if code != 0 || !strings.Contains(out, "lint:") || !strings.Contains(out, "shadowed") {
		t.Fatalf("lint output: code=%d out=%q", code, out)
	}
	// Bundled grammars lint clean.
	out, _, code = runCmd(t, "", "check", "-lint", "java.full")
	if code != 0 || strings.Contains(out, "lint:") {
		t.Fatalf("java.full must lint clean: %q", out)
	}
}

func TestParseJSONFlag(t *testing.T) {
	out, _, code := runCmd(t, "1+2", "parse", "-json", "calc.core")
	if code != 0 || !strings.Contains(out, `"kind": "node"`) || !strings.Contains(out, `"name": "Add"`) {
		t.Fatalf("json parse: code=%d out=%q", code, out)
	}
}

func TestParseProfileFlag(t *testing.T) {
	out, _, code := runCmd(t, "1+2*3", "parse", "-profile", "calc.core")
	if code != 0 {
		t.Fatalf("code = %d", code)
	}
	for _, frag := range []string{"(Add", "hot productions:", "production", "calls", "total"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
}

func TestProfileCommand(t *testing.T) {
	out, errb, code := runCmd(t, `{"a": [1, 2, {"b": true}]}`, "profile", "-n", "3", "json.value")
	if code != 0 {
		t.Fatalf("code = %d, err = %s", code, errb)
	}
	for _, frag := range []string{"profile: json.value, 3 parse(s)", "production", "self-ms", "total", "stats: calls="} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in:\n%s", frag, out)
		}
	}
	// The total row aggregates all 3 repetitions of the reported stats
	// line: calls in the table == calls in the stats line.
	lines := strings.Split(out, "\n")
	var totalCalls, statsCalls string
	for _, ln := range lines {
		fields := strings.Fields(ln)
		if len(fields) > 1 && fields[0] == "total" {
			totalCalls = fields[1]
		}
		if strings.HasPrefix(ln, "stats: calls=") {
			statsCalls = strings.TrimPrefix(strings.SplitN(strings.Fields(ln)[1], " ", 2)[0], "calls=")
		}
	}
	if totalCalls == "" || totalCalls != statsCalls {
		t.Errorf("table total %q != stats calls %q in:\n%s", totalCalls, statsCalls, out)
	}
}

func TestProfileCommandJSONAndGen(t *testing.T) {
	out, errb, code := runCmd(t, "", "profile", "-gen", "2", "-json", "java.core")
	if code != 0 {
		t.Fatalf("code = %d, err = %s", code, errb)
	}
	var prof struct {
		TotalCalls  int64 `json:"total_calls"`
		Productions []struct {
			Name  string `json:"name"`
			Calls int64  `json:"calls"`
		} `json:"productions"`
	}
	if err := json.Unmarshal([]byte(out), &prof); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if prof.TotalCalls <= 0 || len(prof.Productions) == 0 {
		t.Fatalf("empty profile: %+v", prof)
	}
	var sum int64
	for _, p := range prof.Productions {
		sum += p.Calls
	}
	if sum != prof.TotalCalls {
		t.Errorf("production calls sum %d != total_calls %d", sum, prof.TotalCalls)
	}
}

func TestProfileCommandMetricsAndErrors(t *testing.T) {
	out, _, code := runCmd(t, "1+2", "profile", "-metrics", "calc.core")
	if code != 0 || !strings.Contains(out, "engine metrics:") || !strings.Contains(out, `"parses_started"`) {
		t.Fatalf("metrics: code=%d out=%q", code, out)
	}
	if _, errb, code := runCmd(t, "", "profile"); code != 1 || !strings.Contains(errb, "usage:") {
		t.Fatalf("missing module: code=%d err=%q", code, errb)
	}
	if _, errb, code := runCmd(t, "", "profile", "-n", "0", "calc.core"); code != 1 || !strings.Contains(errb, "-n") {
		t.Fatalf("bad reps: code=%d err=%q", code, errb)
	}
	if _, errb, code := runCmd(t, "1x2", "profile", "calc.core"); code != 1 || errb == "" {
		t.Fatalf("syntax error must fail: code=%d err=%q", code, errb)
	}
}

// writeTinyModule drops the two-production trace-test grammar into a
// temp module dir and returns the dir.
func writeTinyModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := "module tiny;\npublic A = B B !. ;\npublic B = \"x\" ;\noption root = A;\n"
	if err := os.WriteFile(filepath.Join(dir, "tiny.mpeg"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// traceShape loads a Chrome trace-event file and projects each event to
// "ph name" — the timestamp-free golden shape of the trace.
func traceShape(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v\n%s", err, data)
	}
	shape := make([]string, 0, len(events))
	for _, e := range events {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		shape = append(shape, ph+" "+name)
	}
	return shape
}

func TestParseTraceJSON(t *testing.T) {
	dir := writeTinyModule(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	stdout, errb, code := runCmd(t, "xx", "parse", "-d", dir, "-trace-json", out, "tiny")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errb)
	}
	if !strings.Contains(stdout, "trace:") || !strings.Contains(stdout, out) {
		t.Errorf("missing trace summary in output:\n%s", stdout)
	}
	// The tiny grammar's trace shape is a golden: the default optimizer
	// inlines B, leaving the metadata record plus the root span.
	want := []string{"M process_name", "B tiny.A", "E tiny.A"}
	got := traceShape(t, out)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("trace shape = %v, want %v", got, want)
	}
}

func TestParseTraceJSONGoverned(t *testing.T) {
	dir := writeTinyModule(t)
	out := filepath.Join(t.TempDir(), "trace.json")
	_, errb, code := runCmd(t, "xx", "parse", "-d", dir, "-trace-json", out, "-max-depth", "64", "tiny")
	if code != 0 {
		t.Fatalf("governed trace-json: code=%d err=%q", code, errb)
	}
	if got := traceShape(t, out); len(got) == 0 || got[0] != "M process_name" {
		t.Errorf("governed trace shape = %v", got)
	}
	if _, errb, code := runCmd(t, "xx", "parse", "-d", dir, "-trace-json", out, "-trace", "tiny"); code != 1 || !strings.Contains(errb, "mutually exclusive") {
		t.Errorf("-trace-json with -trace must fail: code=%d err=%q", code, errb)
	}
}

func TestProfileTraceJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	stdout, errb, code := runCmd(t, "1+2*3", "profile", "-n", "2", "-trace-json", out, "calc.core")
	if code != 0 {
		t.Fatalf("code=%d err=%q", code, errb)
	}
	if !strings.Contains(stdout, "trace:") {
		t.Errorf("missing trace summary:\n%s", stdout)
	}
	shape := traceShape(t, out)
	if len(shape) < 3 || shape[0] != "M process_name" {
		t.Errorf("trace shape = %v", shape)
	}
	// Two profiled reps both land in the one trace: the root span must
	// appear twice.
	roots := 0
	for _, s := range shape {
		if strings.HasPrefix(s, "B calc.core.") {
			roots++
		}
	}
	if roots < 2 {
		t.Errorf("expected spans from both reps, shape = %v", shape)
	}
}

func TestProfileMetricsHistograms(t *testing.T) {
	out, _, code := runCmd(t, "1+2", "profile", "-metrics", "calc.core")
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	for _, frag := range []string{`"parse_duration_ns"`, `"parse_input_bytes"`, `"buckets"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("profile -metrics output missing %q", frag)
		}
	}
}

func TestServeUsageErrors(t *testing.T) {
	if _, errb, code := runCmd(t, "", "serve", "extra-arg"); code != 1 || !strings.Contains(errb, "usage: modpeg serve") {
		t.Fatalf("extra arg: code=%d err=%q", code, errb)
	}
	if _, errb, code := runCmd(t, "", "serve", "-grammars", "no.such.module", "-addr", "127.0.0.1:0"); code != 1 || !strings.Contains(errb, "no.such.module") {
		t.Fatalf("bad grammar: code=%d err=%q", code, errb)
	}
}

func TestLoadtestCommand(t *testing.T) {
	artifact := filepath.Join(t.TempDir(), "LOADTEST.json")
	out, errb, code := runCmd(t, "", "loadtest",
		"-duration", "400ms", "-workers", "2", "-warmup", "0s",
		"-no-adversarial", "-slo-p99", "0s", "-slo-errors", "0.5",
		"-json", artifact)
	if code != 0 {
		t.Fatalf("code = %d, err = %s", code, errb)
	}
	for _, frag := range []string{"mode=closed", "closed/w2", "outcomes (", "p99"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q in report:\n%s", frag, out)
		}
	}
	if !strings.Contains(errb, "spawned in-process server") {
		t.Errorf("no spawn notice on stderr: %s", errb)
	}
	data, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Mode   string `json:"mode"`
		Phases []struct {
			Sent  int64 `json:"sent"`
			P99NS int64 `json:"p99_ns"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artifact not JSON: %v", err)
	}
	if rep.Mode != "closed" || len(rep.Phases) != 1 || rep.Phases[0].Sent == 0 || rep.Phases[0].P99NS <= 0 {
		t.Errorf("artifact incomplete: %s", data)
	}
}

func TestLoadtestErrors(t *testing.T) {
	_, errb, code := runCmd(t, "", "loadtest", "-mode", "bogus", "-warmup", "0s")
	if code != 1 || !strings.Contains(errb, "unknown mode") {
		t.Fatalf("bad mode: code=%d err=%q", code, errb)
	}
	_, errb, code = runCmd(t, "", "loadtest", "extra-arg")
	if code != 1 || !strings.Contains(errb, "usage: modpeg loadtest") {
		t.Fatalf("extra arg: code=%d err=%q", code, errb)
	}
	// An unreachable floor must flip the exit code via the gate.
	_, errb, code = runCmd(t, "", "loadtest",
		"-duration", "300ms", "-workers", "2", "-warmup", "0s",
		"-no-adversarial", "-no-scrape", "-slo-p99", "0s", "-slo-errors", "0.5",
		"-min-rps", "9999999")
	if code != 1 || !strings.Contains(errb, "gates failed") {
		t.Fatalf("gate: code=%d err=%q", code, errb)
	}
}
