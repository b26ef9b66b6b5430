package telemetry_test

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"modpeg"
)

// tinyGrammar is the two-production grammar the trace goldens use:
// small enough that the full event stream is reviewable by hand.
const tinyGrammar = "module tiny;\npublic A = B B !. ;\npublic B = \"x\" ;\noption root = A;\n"

func tinyParser(t *testing.T) *modpeg.Parser {
	t.Helper()
	// Baseline optimizations keep B out-of-line so the trace shows
	// nested production spans instead of one inlined root span.
	p, err := modpeg.New("tiny",
		modpeg.WithModules(map[string]string{"tiny": tinyGrammar}),
		modpeg.WithoutBundledGrammars(),
		modpeg.WithOptimizations(modpeg.BaselineOptimizations()))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// counterClock returns a deterministic trace clock advancing 1µs per
// event.
func counterClock() func() time.Duration {
	n := 0
	return func() time.Duration {
		n++
		return time.Duration(n) * time.Microsecond
	}
}

// TestTraceGolden pins the Chrome trace-event output for a parse of the
// tiny grammar byte for byte (deterministic via an injected clock).
func TestTraceGolden(t *testing.T) {
	p := tinyParser(t)
	var b strings.Builder
	tr := p.NewTraceJSON(&b)
	tr.SetClock(counterClock())
	if _, _, err := p.ParseRequest(context.Background(), "in", "xx", modpeg.Request{Hook: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(golden) {
		t.Errorf("trace output drifted from testdata/trace.json.\n--- got ---\n%s\n--- want ---\n%s", b.String(), golden)
	}
}

// TestTraceWellFormed checks the structural contract on a larger
// grammar: the output is a valid JSON array, B/E events balance per
// name, and every event carries the required trace-format fields.
func TestTraceWellFormed(t *testing.T) {
	p, err := modpeg.New("calc.core")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	tr := p.NewTraceJSON(&b)
	if _, _, err := p.ParseRequest(context.Background(), "in", "1+2*(3-4)", modpeg.Request{Hook: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("only %d events", len(events))
	}
	if tr.Events() != len(events) {
		t.Errorf("Events() = %d, decoded %d", tr.Events(), len(events))
	}
	if ph := events[0]["ph"]; ph != "M" {
		t.Errorf("first event ph = %v, want metadata", ph)
	}
	depth := 0
	var stack []string
	for i, e := range events[1:] {
		ph, _ := e["ph"].(string)
		name, _ := e["name"].(string)
		if name == "" {
			t.Fatalf("event %d has no name", i+1)
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("event %d has no numeric ts", i+1)
		}
		switch ph {
		case "B":
			stack = append(stack, name)
			depth++
		case "E":
			if depth == 0 {
				t.Fatalf("E without B at event %d", i+1)
			}
			if top := stack[len(stack)-1]; top != name {
				t.Fatalf("E %q closes B %q", name, top)
			}
			stack = stack[:len(stack)-1]
			depth--
		case "i":
			if !strings.HasPrefix(name, "memo ") {
				t.Errorf("unexpected instant event %q", name)
			}
		default:
			t.Errorf("unexpected ph %q at event %d", ph, i+1)
		}
	}
	if depth != 0 {
		t.Errorf("unbalanced spans: %d left open", depth)
	}
}

// TestTraceCarriesTraceID checks the W3C trace-context stamp: a traced
// parse with the Chrome exporter installed puts a trace_id metadata
// record on the timeline before the first production span.
func TestTraceCarriesTraceID(t *testing.T) {
	p := tinyParser(t)
	var b strings.Builder
	tr := p.NewTraceJSON(&b)
	tr.SetClock(counterClock())
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	if _, _, err := p.ParseRequest(t.Context(), "in", "xx", modpeg.Request{Hook: tr, TraceID: traceID}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("traced timeline is not valid JSON: %v", err)
	}
	found := -1
	firstSpan := len(events)
	for i, e := range events {
		name, _ := e["name"].(string)
		if name == "trace_id" {
			if ph := e["ph"]; ph != "M" {
				t.Errorf("trace_id event ph = %v, want metadata", ph)
			}
			args, _ := e["args"].(map[string]any)
			if got := args["trace_id"]; got != traceID {
				t.Errorf("trace_id args = %v, want %q", got, traceID)
			}
			found = i
		}
		if ph, _ := e["ph"].(string); ph == "B" && i < firstSpan {
			firstSpan = i
		}
	}
	if found < 0 {
		t.Fatal("timeline has no trace_id metadata record")
	}
	if found > firstSpan {
		t.Errorf("trace_id record at %d after first span at %d", found, firstSpan)
	}
}

// TestTraceEmptyAndShed covers the no-event stream and the memo-shed
// instant event.
func TestTraceEmptyAndShed(t *testing.T) {
	p := tinyParser(t)
	var empty strings.Builder
	tr := p.NewTraceJSON(&empty)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "[]\n" {
		t.Errorf("empty trace = %q, want []", empty.String())
	}

	var b strings.Builder
	tr = p.NewTraceJSON(&b)
	tr.SetClock(counterClock())
	tr.OnMemoShed(5, 1024)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"name":"memo-shed"`) || !strings.Contains(out, `"arena_bytes":1024`) {
		t.Errorf("shed event malformed: %s", out)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(out), &events); err != nil {
		t.Fatalf("shed trace is not valid JSON: %v", err)
	}
}
