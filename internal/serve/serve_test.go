package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"modpeg"
	"modpeg/internal/registry"
	"modpeg/internal/vm"
	"modpeg/internal/workload"
)

func testServer(t *testing.T, cfg Config) http.Handler {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

func postParse(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/parse", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeError(t *testing.T, rec *httptest.ResponseRecorder) ErrorResponse {
	t.Helper()
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body is not JSON: %v\n%s", err, rec.Body.String())
	}
	return e
}

func TestParseSuccess(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := postParse(t, h, `{"grammar":"calc.core","input":"1+2*3"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q", ct)
	}
	var resp ParseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp.Grammar != "calc.core" || len(resp.Value) == 0 {
		t.Errorf("response = %+v", resp)
	}
	if resp.Stats.Calls <= 0 || resp.Stats.MaxPos != 5 {
		t.Errorf("stats = %+v", resp.Stats)
	}
	if resp.DurationNS <= 0 {
		t.Errorf("duration_ns = %d", resp.DurationNS)
	}
	if resp.Profile != nil {
		t.Errorf("unrequested profile present")
	}
}

func TestParseProfile(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := postParse(t, h, `{"grammar":"calc.core","input":"1+2*(3-4)","profile":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ParseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var prof struct {
		TotalCalls  int64            `json:"total_calls"`
		Productions []map[string]any `json:"productions"`
	}
	if err := json.Unmarshal(resp.Profile, &prof); err != nil {
		t.Fatalf("profile not JSON: %v", err)
	}
	if prof.TotalCalls <= 0 || len(prof.Productions) == 0 {
		t.Errorf("profile = %+v", prof)
	}
}

func TestParseSyntaxError(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := postParse(t, h, `{"grammar":"calc.core","input":"1+","name":"doc.txt"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	e := decodeError(t, rec)
	if e.Error != "syntax" {
		t.Errorf("error kind %q", e.Error)
	}
	if len(e.Expected) == 0 {
		t.Errorf("expected set not passed through: %+v", e)
	}
	if e.Location == nil || e.Location.File != "doc.txt" || e.Location.Line != 1 ||
		e.Location.Offset != 2 {
		t.Errorf("location = %+v", e.Location)
	}
}

func TestParseLimitBreaches(t *testing.T) {
	h := testServer(t, Config{
		Grammars: []string{"calc.core"},
		Limits:   modpeg.Limits{MaxInputBytes: 16, MaxCallDepth: 8},
	})

	rec := postParse(t, h, `{"grammar":"calc.core","input":"1+1+1+1+1+1+1+1+1+1+1+1"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("input breach status %d, want 413: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Error != "limit" || e.Kind != "input-bytes" {
		t.Errorf("input breach body = %+v", e)
	}

	rec = postParse(t, h, `{"grammar":"calc.core","input":"((((((1))))))"}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("depth breach status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	if e := decodeError(t, rec); e.Error != "limit" || e.Kind != "call-depth" {
		t.Errorf("depth breach body = %+v", e)
	}

	// A request can tighten the server budget but not exceed it.
	rec = postParse(t, h, `{"grammar":"calc.core","input":"1+2","max_input_bytes":2}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("request-tightened limit ignored: %d", rec.Code)
	}
	rec = postParse(t, h, `{"grammar":"calc.core","input":"1+1+1+1+1+1+1+1+1","max_input_bytes":4096}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("request loosened the server limit: %d", rec.Code)
	}
}

func TestParseBadRequests(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})

	rec := postParse(t, h, `{not json`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON status %d", rec.Code)
	}
	rec = postParse(t, h, `{"input":"1"}`)
	if rec.Code != http.StatusBadRequest || decodeError(t, rec).Error != "bad-request" {
		t.Errorf("missing grammar status %d", rec.Code)
	}
	rec = postParse(t, h, `{"grammar":"json.value","input":"[1]"}`)
	if rec.Code != http.StatusBadRequest || decodeError(t, rec).Error != "unknown-grammar" {
		t.Errorf("unserved grammar status %d: %s", rec.Code, rec.Body.String())
	}
	rec = postParse(t, h, `{"grammar":"calc.core","production":"calc.core.NoSuchProd","input":"1"}`)
	if rec.Code != http.StatusBadRequest || decodeError(t, rec).Error != "unknown-grammar" {
		t.Errorf("bad production status %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/parse", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /parse status %d", rec.Code)
	}

	small, err := New(Config{Grammars: []string{"calc.core"}, MaxBodyBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	rec = postParse(t, small.Handler(), `{"grammar":"calc.core","input":"`+strings.Repeat("1", 100)+`"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status %d", rec.Code)
	}
}

func TestParseProductionOverride(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	// Parsing from an inner production both exercises WithRoot and
	// proves the cache keys on (grammar, production).
	rec := postParse(t, h, `{"grammar":"calc.core","production":"calc.core.Atom","input":"42"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ParseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Production != "calc.core.Atom" {
		t.Errorf("production = %q", resp.Production)
	}
}

// TestColdParserConcurrentFirstRequests sends concurrent first requests
// for one uncached (grammar, production) key, which build outside the
// cache lock: every request succeeds, every caller gets the parser of
// the first insert, and the cache ends with one parser for the key.
func TestColdParserConcurrentFirstRequests(t *testing.T) {
	s, err := New(Config{Grammars: []string{"calc.core"}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const n = 8
	got := make([]*modpeg.Parser, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = s.parserFor("calc.core", "calc.core.Atom")
			codes[i] = postParse(t, h, `{"grammar":"calc.core","production":"calc.core.Atom","input":"42"}`).Code
		}(i)
	}
	wg.Wait()
	s.mu.Lock()
	cached := s.parsers[parserKey{"calc.core", "calc.core.Atom"}]
	entries := len(s.parsers)
	s.mu.Unlock()
	if cached == nil || entries != 2 {
		t.Fatalf("cache holds %d parsers (key cached: %v), want the configured one plus the new key", entries, cached != nil)
	}
	for i := range got {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, codes[i])
		}
		if got[i] != cached {
			t.Errorf("caller %d got a parser other than the cached one", i)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	modpeg.ResetMetrics()
	defer modpeg.ResetMetrics()
	postParse(t, h, `{"grammar":"calc.core","input":"1+2"}`)
	postParse(t, h, `{"grammar":"calc.core","input":"1+"}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"modpeg_parses_started_total 2",
		"# TYPE modpeg_parse_duration_seconds histogram",
		`modpeg_parse_duration_seconds_bucket{le="+Inf"} 2`,
		`modpeg_grammar_parses_total{grammar="calc.core",outcome="completed"} 1`,
		`modpeg_grammar_parses_total{grammar="calc.core",outcome="failed"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestHealthAndReady(t *testing.T) {
	s, err := New(Config{Grammars: []string{"calc.core"}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, path := range []string{"/healthz", "/readyz"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("%s status %d", path, rec.Code)
		}
	}
	s.ready.Store(false)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz status %d", rec.Code)
	}
}

func TestPprofGating(t *testing.T) {
	plain := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof reachable without EnablePprof: %d", rec.Code)
	}
	enabled := testServer(t, Config{Grammars: []string{"calc.core"}, EnablePprof: true})
	rec = httptest.NewRecorder()
	enabled.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index status %d", rec.Code)
	}
}

func TestBadGrammarFailsFast(t *testing.T) {
	if _, err := New(Config{Grammars: []string{"no.such.module"}}); err == nil {
		t.Fatal("New accepted a nonexistent grammar")
	}
}

// TestServeGracefulShutdown runs the real listener path: requests
// succeed, then canceling the context drains the server and Serve
// returns.
func TestServeGracefulShutdown(t *testing.T) {
	s, err := New(Config{Grammars: []string{"calc.core"}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Post(base+"/parse", "application/json",
		strings.NewReader(`{"grammar":"calc.core","input":"1+2"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live /parse status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	if s.ready.Load() {
		t.Error("ready flag still set after shutdown")
	}
}

// TestConcurrentAdversarial hammers one server from many goroutines
// with the adversarial corpus under tight budgets; run with -race this
// checks the pooled-parser path and the limit plumbing for data races.
func TestConcurrentAdversarial(t *testing.T) {
	h := testServer(t, Config{
		Grammars: []string{"calc.full", "json.value"},
		Limits: modpeg.Limits{
			MaxInputBytes:    1 << 20,
			MaxMemoBytes:     1 << 20,
			MaxCallDepth:     200,
			MaxParseDuration: 250 * time.Millisecond,
		},
	})
	var corpus []workload.AdversarialInput
	for _, in := range workload.AdversarialCorpus(400, 1<<12) {
		if in.Module == "path" { // not a bundled module; served grammars only
			continue
		}
		corpus = append(corpus, in)
	}
	if len(corpus) < 3 {
		t.Fatalf("corpus too small: %d", len(corpus))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				in := corpus[(w+i)%len(corpus)]
				body, _ := json.Marshal(ParseRequest{
					Grammar: in.Module, Input: in.Input, Name: in.Name,
				})
				req := httptest.NewRequest(http.MethodPost, "/parse", strings.NewReader(string(body)))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK, http.StatusUnprocessableEntity,
					http.StatusRequestEntityTooLarge, http.StatusRequestTimeout:
				default:
					t.Errorf("%s: unexpected status %d: %s", in.Name, rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRequestIDGenerated checks that every response carries a generated
// X-Request-ID when the client sends none, and that typed error bodies
// echo it.
func TestRequestIDGenerated(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := postParse(t, h, `{"grammar":"calc.core","input":"1+2"}`)
	id := rec.Header().Get("X-Request-ID")
	if len(id) != 16 {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", id)
	}
	for _, c := range id {
		if !strings.ContainsRune("0123456789abcdef", c) {
			t.Fatalf("generated X-Request-ID %q is not lowercase hex", id)
		}
	}

	rec = postParse(t, h, `{"grammar":"calc.core","input":"1+"}`)
	errID := rec.Header().Get("X-Request-ID")
	if errID == "" {
		t.Fatal("error response missing X-Request-ID header")
	}
	if e := decodeError(t, rec); e.RequestID != errID {
		t.Errorf("error body request_id = %q, header = %q", e.RequestID, errID)
	}
	if errID == id {
		t.Errorf("two requests shared request id %q", id)
	}
}

// TestRequestIDEchoed checks that a client-supplied id survives to the
// response header and the error body, and that an oversized one is
// replaced rather than reflected.
func TestRequestIDEchoed(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	req := httptest.NewRequest(http.MethodPost, "/parse",
		strings.NewReader(`{"grammar":"calc.core","input":"1+"}`))
	req.Header.Set("X-Request-ID", "client-id-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Errorf("X-Request-ID = %q, want echo of client-id-42", got)
	}
	if e := decodeError(t, rec); e.RequestID != "client-id-42" {
		t.Errorf("error body request_id = %q", e.RequestID)
	}

	req = httptest.NewRequest(http.MethodPost, "/parse",
		strings.NewReader(`{"grammar":"calc.core","input":"1"}`))
	req.Header.Set("X-Request-ID", strings.Repeat("x", 500))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("oversized client id not replaced: %q", got)
	}
}

// TestMetricsContentTypeExact pins /metrics to the Prometheus text
// exposition content type, and checks the runtime gauges are scrapeable
// through the serve mux.
func TestMetricsContentTypeExact(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	const want = "text/plain; version=0.0.4; charset=utf-8"
	if got := rec.Header().Get("Content-Type"); got != want {
		t.Errorf("Content-Type = %q, want %q", got, want)
	}
	out := rec.Body.String()
	for _, name := range []string{
		"modpeg_goroutines ", "modpeg_heap_bytes ", "modpeg_gc_pause_seconds ",
		"modpeg_inflight_requests ", "modpeg_uptime_seconds ",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("/metrics missing runtime gauge %q", strings.TrimSpace(name))
		}
	}
}

// TestInflightGauge observes the in-flight gauge from inside a request:
// a parse of a grammar whose hook scrapes the gauge must see itself.
func TestInflightGauge(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	before := vm.Metrics().InflightRequests
	done := make(chan int64, 1)
	// Hold a request open by blocking in the body reader.
	pr, pw := io.Pipe()
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/parse", pr)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		done <- 0
	}()
	// Wait until the handler has entered the bracket.
	deadline := time.Now().Add(2 * time.Second)
	for vm.Metrics().InflightRequests != before+1 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight gauge never rose")
		}
		time.Sleep(time.Millisecond)
	}
	pw.Write([]byte(`{"grammar":"calc.core","input":"1+2"}`))
	pw.Close()
	<-done
	if got := vm.Metrics().InflightRequests; got != before {
		t.Errorf("in-flight gauge after request = %d, want %d", got, before)
	}
}

// TestOmitValue checks the capacity-probe knob: omit_value drops the
// AST from the response while stats and timing survive.
func TestOmitValue(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"calc.core"}})
	rec := postParse(t, h, `{"grammar":"calc.core","input":"1+2*3","omit_value":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ParseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Value) != 0 {
		t.Errorf("omit_value response still carries a value: %s", resp.Value)
	}
	if resp.Stats.Calls == 0 || resp.DurationNS <= 0 {
		t.Errorf("stats/timing missing from omit_value response: %+v", resp)
	}
	if strings.Contains(rec.Body.String(), `"value"`) {
		t.Errorf("value key present in omit_value body: %s", rec.Body.String())
	}
}

// TestCompactResponses pins the wire encoding to single-line JSON.
// Indented rendering is quadratic in AST nesting depth — a 4 KB
// deeply nested input produced a ~300 MB pretty-printed response
// before this was fixed — so deep inputs must stay linear.
func TestCompactResponses(t *testing.T) {
	h := testServer(t, Config{Grammars: []string{"json.value"}})
	rec := postParse(t, h, `{"grammar":"json.value","input":"[[1,2],[3]]"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if n := strings.Count(strings.TrimSpace(rec.Body.String()), "\n"); n != 0 {
		t.Errorf("success body spans %d extra lines, want compact single-line JSON", n)
	}

	// Response size must grow linearly with nesting depth, not
	// quadratically: depth 512 vs 256 within a factor of ~3.
	deep := func(depth int) int {
		in := strings.Repeat("[", depth) + "1" + strings.Repeat("]", depth)
		rec := postParse(t, h, `{"grammar":"json.value","input":`+string(mustJSON(t, in))+`}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("depth %d: status %d: %s", depth, rec.Code, rec.Body.String())
		}
		return rec.Body.Len()
	}
	d256, d512 := deep(256), deep(512)
	if d512 > 3*d256 {
		t.Errorf("response size superlinear in depth: %d bytes at 256, %d at 512", d256, d512)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParseResponseIdentity pins the one-pass success body to the
// encoder it replaced: for every shape of 200 response the body equals
// json.NewEncoder(&buf).Encode(ParseResponse{...}) byte for byte. The
// value and stats come from a reference parse; only duration_ns and the
// profile, which carry timings, are taken from the body.
func TestParseResponseIdentity(t *testing.T) {
	reg, err := registry.New(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := testServer(t, Config{Grammars: []string{"calc.core", "json.value"}, Registry: reg})
	mustUploadHTTP(t, h, "acme", "t.base", rtBase)
	mustUploadHTTP(t, h, "acme", "t.base", rtBaseV2)
	cases := []struct {
		name    string
		req     ParseRequest
		opts    []modpeg.Option // reference parser options
		version int             // version the response must echo
	}{
		{name: "static", req: ParseRequest{Grammar: "calc.core", Input: "1+2*(3-4)"}},
		{name: "tenant", req: ParseRequest{Tenant: "acme", Grammar: "t.base", Input: "aza"},
			opts: []modpeg.Option{modpeg.WithModules(map[string]string{"t.base": rtBaseV2})}, version: 2},
		{name: "production", req: ParseRequest{Grammar: "calc.core", Production: "calc.core.Atom", Input: "42"},
			opts: []modpeg.Option{modpeg.WithRoot("calc.core.Atom")}},
		{name: "omit-value", req: ParseRequest{Grammar: "calc.core", Input: "1+2*3", OmitValue: true}},
		{name: "profile", req: ParseRequest{Grammar: "calc.core", Input: "1+2*3", Profile: true}},
		{name: "memo-sheds", req: ParseRequest{Grammar: "calc.core", Input: strings.Repeat("(1+2)*", 40) + "3", MaxMemoBytes: 256}},
		{name: "escaped-text", req: ParseRequest{Grammar: "json.value", Input: "[\"<>&\x01\xe2\x80\xa8\"]"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postParse(t, h, string(mustJSON(t, c.req)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var got ParseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}

			ref, err := modpeg.New(c.req.Grammar, c.opts...)
			if err != nil {
				t.Fatal(err)
			}
			lim := modpeg.Limits{MaxMemoBytes: c.req.MaxMemoBytes}
			var hook modpeg.ParseHook
			if c.req.Profile {
				hook = ref.NewProfiler()
			}
			v, st, err := ref.ParseRequest(context.Background(), "request", c.req.Input, modpeg.Request{Limits: lim, Hook: hook})
			if err != nil {
				t.Fatal(err)
			}
			want := ParseResponse{
				Grammar:    c.req.Grammar,
				Tenant:     c.req.Tenant,
				Version:    c.version,
				Production: c.req.Production,
				Stats:      statsJSON(st),
				DurationNS: got.DurationNS,
				Profile:    got.Profile,
			}
			if !c.req.OmitValue {
				js, err := modpeg.ValueToJSONCompact(v)
				if err != nil {
					t.Fatal(err)
				}
				want.Value = json.RawMessage(js)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(want); err != nil {
				t.Fatal(err)
			}
			if got, want := rec.Body.String(), buf.String(); got != want {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				lo := max(i-40, 0)
				t.Fatalf("body differs from the encoder's at byte %d of %d:\n got ...%.80s\nwant ...%.80s",
					i, len(want), got[lo:], want[lo:])
			}
			switch {
			case c.req.Profile && len(got.Profile) == 0:
				t.Error("profile missing")
			case c.req.MaxMemoBytes > 0 && st.MemoSheds == 0:
				t.Error("the memo budget shed nothing; the memo_sheds field went untested")
			}
		})
	}
}

// TestPutBodyBounded checks the body pool's bound: a buffer that grew
// past maxPooledBody is dropped, not pooled.
func TestPutBodyBounded(t *testing.T) {
	small := make([]byte, 100, maxPooledBody)
	if !putBody(&small) {
		t.Error("a buffer at the cap was dropped")
	}
	if len(small) != 0 {
		t.Errorf("a pooled buffer keeps %d bytes, want it emptied", len(small))
	}
	big := make([]byte, 0, maxPooledBody+1)
	if putBody(&big) {
		t.Error("a buffer past the cap was pooled")
	}
}
