// Package serve implements the modpeg parse service: an HTTP server
// exposing the engine's parsers behind POST /parse, the telemetry
// registry behind GET /metrics (Prometheus text exposition), liveness
// and readiness probes, and optional net/http/pprof handlers.
//
// Every request runs under the governed-parse machinery: per-request
// Limits (server defaults tightened by request overrides) plus the
// request context's cancellation, so a slow client disconnect or a
// pathological input can never pin a worker. Parsers are compiled once
// per (grammar, production) pair and reused across requests; the
// underlying vm pool makes concurrent parses on one parser cheap.
package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modpeg"
	"modpeg/internal/ast"
	"modpeg/internal/registry"
	"modpeg/internal/telemetry"
	"modpeg/internal/vm"
)

// DefaultMaxBodyBytes caps the request body when Config.MaxBodyBytes
// is zero. The parse input rides inside a JSON string, so the body cap
// should sit above the input-byte limit.
const DefaultMaxBodyBytes = 8 << 20

// shutdownGrace bounds how long Serve waits for in-flight requests
// after its context is canceled.
const shutdownGrace = 10 * time.Second

// DefaultSlowParse is the flight-recorder latency threshold when
// Config.SlowParse is zero: parses slower than this are captured.
const DefaultSlowParse = 250 * time.Millisecond

// Config describes a parse service.
type Config struct {
	// Grammars lists the top modules the service accepts. Every entry
	// is compiled at construction (so a bad grammar fails fast, before
	// the listener opens) and requests for any other grammar are
	// rejected. Empty means: accept any grammar the resolver can load,
	// compiled lazily on first use.
	Grammars []string
	// ModuleDir adds a directory of .mpeg modules to the resolver, in
	// front of the bundled grammars.
	ModuleDir string
	// Limits are the per-request parse budgets. A request may tighten
	// them but never exceed them.
	Limits modpeg.Limits
	// Engine selects the parse engine for grammars the server compiles
	// itself (bundled and module-dir grammars): "" or "optimized" for
	// the interpreting engine, "compiled" for the closure-compiled one.
	// Registry-served grammars choose their engine per upload instead.
	Engine string
	// MaxBodyBytes caps the request body; 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Logger receives one structured record per HTTP request and one
	// per parse. Nil disables logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// SampleEvery enables always-on sampled profiling for the server's
	// statically configured grammars: 1 in SampleEvery parse sessions
	// runs under the per-production profiler, feeding the rolling
	// per-grammar profiles on GET /debug/profiles and the
	// hot-production counters on /metrics. 0 disables sampling (the
	// default — the untouched parse path stays allocation-free).
	// Registry tenants choose their own rate per upload instead.
	SampleEvery int
	// SlowParse is the flight-recorder latency threshold: parses
	// slower than this are captured on GET /debug/flightrecorder.
	// 0 means DefaultSlowParse. A registry tenant's slow_parse_ms
	// setting overrides it for that tenant's parses.
	SlowParse time.Duration
	// FlightRecords caps the flight-recorder ring
	// (0 = telemetry.DefaultFlightRecords).
	FlightRecords int
	// Registry, when set, enables the multi-tenant grammar registry:
	// the /grammars upload/list/delete endpoints, and tenant-scoped
	// /parse requests (ParseRequest.Tenant/Version) served from
	// hot-swappable registered grammar versions.
	Registry *registry.Registry
}

// Server is a parse service. Create one with New, expose it with
// Handler (for tests or custom servers) or Serve / ListenAndServe.
type Server struct {
	cfg     Config
	allowed map[string]bool // non-nil iff cfg.Grammars was non-empty

	mu      sync.Mutex
	parsers map[parserKey]*modpeg.Parser

	recorder *telemetry.FlightRecorder

	ready atomic.Bool
}

type parserKey struct {
	grammar    string
	production string
}

// New builds a Server, compiling every configured grammar up front.
func New(cfg Config) (*Server, error) {
	s := &Server{
		cfg:      cfg,
		parsers:  make(map[parserKey]*modpeg.Parser),
		recorder: telemetry.NewFlightRecorder(cfg.FlightRecords),
	}
	if len(cfg.Grammars) > 0 {
		s.allowed = make(map[string]bool, len(cfg.Grammars))
		for _, g := range cfg.Grammars {
			s.allowed[g] = true
		}
		for _, g := range cfg.Grammars {
			if _, err := s.parserFor(g, ""); err != nil {
				return nil, fmt.Errorf("grammar %q: %w", g, err)
			}
		}
	}
	s.ready.Store(true)
	return s, nil
}

// parserFor returns the cached parser for (grammar, production),
// compiling it on first use outside s.mu; the first insert wins.
func (s *Server) parserFor(grammar, production string) (*modpeg.Parser, error) {
	key := parserKey{grammar, production}
	s.mu.Lock()
	p, ok := s.parsers[key]
	s.mu.Unlock()
	if ok {
		return p, nil
	}
	opts := []modpeg.Option{}
	if s.cfg.ModuleDir != "" {
		opts = append(opts, modpeg.WithModuleDir(s.cfg.ModuleDir))
	}
	if production != "" {
		opts = append(opts, modpeg.WithRoot(production))
	}
	if s.cfg.Engine != "" {
		e, err := modpeg.EngineByName(s.cfg.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, modpeg.WithEngine(e))
	}
	p, err := modpeg.New(grammar, opts...)
	if err != nil {
		return nil, err
	}
	if s.cfg.SampleEvery > 0 {
		p.SetSampling(s.cfg.SampleEvery)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.parsers[key]; !ok {
		s.parsers[key] = p
	}
	return s.parsers[key], nil
}

// Grammars returns the sorted grammar list the service accepts, or nil
// when any resolvable grammar is accepted.
func (s *Server) Grammars() []string {
	if s.allowed == nil {
		return nil
	}
	out := make([]string, 0, len(s.allowed))
	for g := range s.allowed {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// maxRequestIDLen caps a client-supplied X-Request-ID; anything longer
// (or empty) is replaced by a generated id.
const maxRequestIDLen = 128

// newRequestID returns a 16-hex-char random request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// withRequestID accepts the client's X-Request-ID header (or generates
// one), stamps it on the response, and makes it available on the
// request context — every response, success or typed error, carries an
// id a client can quote back and an operator can grep the request log
// for.
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" || len(id) > maxRequestIDLen {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		next.ServeHTTP(w, r)
	})
}

// Handler returns the service's HTTP handler: POST /parse,
// GET /metrics, GET /healthz, GET /readyz, the tail-latency debug
// surface (GET /debug/profiles and GET /debug/flightrecorder, both
// readiness-gated), and (when enabled) /debug/pprof/, gated the same
// way. The whole mux is wrapped in the request-id and trace-context
// middlewares and the structured request logger.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/parse", s.handleParse)
	if s.cfg.Registry != nil {
		mux.HandleFunc("GET /grammars", s.handleRegistryList)
		mux.HandleFunc("GET /grammars/{tenant}/{name}", s.handleRegistryGet)
		mux.HandleFunc("POST /grammars/{tenant}/{name}", s.handleRegistryUpload)
		mux.HandleFunc("DELETE /grammars/{tenant}/{name}/{version}", s.handleRegistryDelete)
	}
	mux.Handle("/metrics", telemetry.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", s.gateDebug(pprof.Index))
		mux.HandleFunc("/debug/pprof/cmdline", s.gateDebug(pprof.Cmdline))
		mux.HandleFunc("/debug/pprof/profile", s.gateDebug(pprof.Profile))
		mux.HandleFunc("/debug/pprof/symbol", s.gateDebug(pprof.Symbol))
		mux.HandleFunc("/debug/pprof/trace", s.gateDebug(pprof.Trace))
	}
	mux.HandleFunc("GET /debug/profiles", s.gateDebug(s.handleProfiles))
	mux.HandleFunc("GET /debug/flightrecorder", s.gateDebug(s.handleFlightRecorder))
	return telemetry.LogRequests(s.cfg.Logger, withRequestID(withTraceContext(mux)))
}

// Serve accepts connections on ln until ctx is canceled, then flips
// /readyz to 503 and drains in-flight requests (bounded by
// shutdownGrace) before returning.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.ready.Store(false)
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		return srv.Shutdown(shutCtx)
	}
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("listening", slog.String("addr", ln.Addr().String()))
	}
	return s.Serve(ctx, ln)
}

// ParseRequest is the POST /parse body.
type ParseRequest struct {
	// Grammar names the top module, e.g. "calc.core". With Tenant set
	// it instead names a registered grammar of that tenant.
	Grammar string `json:"grammar"`
	// Tenant routes the request to the grammar registry: the parse
	// runs against tenant's registered grammar named Grammar (the
	// active version, or the one pinned by Version) under the tenant's
	// budgets. Empty uses the server's statically configured grammars.
	Tenant string `json:"tenant,omitempty"`
	// Version pins a specific registered grammar version; 0 parses
	// against the currently active version. Only valid with Tenant.
	Version int `json:"version,omitempty"`
	// Production optionally overrides the start production (fully
	// qualified, e.g. "calc.core.Sum"). Empty uses the grammar's root.
	Production string `json:"production,omitempty"`
	// Input is the text to parse.
	Input string `json:"input"`
	// Name labels the input in errors and logs (defaults to "request").
	Name string `json:"name,omitempty"`
	// Profile requests a per-production profile in the response.
	Profile bool `json:"profile,omitempty"`
	// OmitValue drops the parsed value from the response, leaving only
	// stats and timing. Capacity probes (modpeg loadtest) use this to
	// measure parse cost without paying AST serialization and transfer.
	OmitValue bool `json:"omit_value,omitempty"`

	// Optional per-request budget overrides. Each tightens the server
	// default; a request can never exceed the configured limit.
	TimeoutMS     int `json:"timeout_ms,omitempty"`
	MaxInputBytes int `json:"max_input_bytes,omitempty"`
	MaxMemoBytes  int `json:"max_memo_bytes,omitempty"`
	MaxCallDepth  int `json:"max_call_depth,omitempty"`
}

// ParseResponse is the POST /parse success body. The server writes it
// with appendParseResponse, field for field in this order and byte for
// byte as encoding/json would; a change here must be mirrored there.
type ParseResponse struct {
	Grammar string `json:"grammar"`
	// Tenant and Version echo registry-backed requests; Version is the
	// grammar version that actually served the parse (the active one
	// when the request did not pin).
	Tenant     string          `json:"tenant,omitempty"`
	Version    int             `json:"version,omitempty"`
	Production string          `json:"production,omitempty"`
	Value      json.RawMessage `json:"value,omitempty"`
	Stats      StatsJSON       `json:"stats"`
	DurationNS int64           `json:"duration_ns"`
	Profile    json.RawMessage `json:"profile,omitempty"`
}

// StatsJSON is the wire form of modpeg.ParseStats.
type StatsJSON struct {
	Calls         int `json:"calls"`
	DispatchSkips int `json:"dispatch_skips"`
	MemoHits      int `json:"memo_hits"`
	MemoMisses    int `json:"memo_misses"`
	MemoStores    int `json:"memo_stores"`
	MemoBytes     int `json:"memo_bytes"`
	MemoSheds     int `json:"memo_sheds,omitempty"`
	MaxPos        int `json:"max_pos"`
}

func statsJSON(st modpeg.ParseStats) StatsJSON {
	return StatsJSON{
		Calls:         st.Calls,
		DispatchSkips: st.DispatchSkips,
		MemoHits:      st.MemoHits,
		MemoMisses:    st.MemoMisses,
		MemoStores:    st.MemoStores,
		MemoBytes:     st.MemoBytes,
		MemoSheds:     st.MemoSheds,
		MaxPos:        st.MaxPos,
	}
}

// ErrorResponse is the body of every non-2xx /parse response.
type ErrorResponse struct {
	// Error is the machine-readable kind: "bad-request",
	// "unknown-grammar", "syntax", "limit", or "engine".
	Error string `json:"error"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Kind names the exhausted budget for Error == "limit"
	// ("input-bytes", "memo-bytes", "call-depth", "deadline",
	// "canceled").
	Kind string `json:"kind,omitempty"`
	// Expected lists the terminals/productions a syntax error wanted.
	Expected []string `json:"expected,omitempty"`
	// Location pinpoints a syntax error.
	Location *LocationJSON `json:"location,omitempty"`
	// RequestID echoes the request's X-Request-ID (client-supplied or
	// generated), so an error body alone is enough to find the matching
	// request-log record.
	RequestID string `json:"request_id,omitempty"`
}

// LocationJSON is the wire form of a source location.
type LocationJSON struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
	Offset int    `json:"offset"`
}

// writeJSON writes v compactly: error bodies and the registry
// responses. The /parse success body, which embeds the parsed AST, is
// assembled by appendParseResponse in the same compact form — indented
// rendering is quadratic in the AST's nesting depth (a 4 KB deeply
// nested input once ballooned to a ~300 MB pretty-printed response).
// Clients that want indentation can re-indent locally.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, resp ErrorResponse) {
	// The request-id middleware stamped the id on the response headers
	// before the handler ran; thread it into the typed error body.
	if resp.RequestID == "" {
		resp.RequestID = w.Header().Get("X-Request-ID")
	}
	writeJSON(w, status, resp)
}

// effectiveLimits layers the request's overrides onto base (the server
// defaults, already tightened by tenant budgets for registry requests).
// Every layer only tightens: no request can exceed the layer above it
// (vm.Limits.Tighten).
func effectiveLimits(base modpeg.Limits, req *ParseRequest) modpeg.Limits {
	return base.Tighten(modpeg.Limits{
		MaxInputBytes:    req.MaxInputBytes,
		MaxMemoBytes:     req.MaxMemoBytes,
		MaxCallDepth:     req.MaxCallDepth,
		MaxParseDuration: time.Duration(req.TimeoutMS) * time.Millisecond,
	})
}

func (s *Server) handleParse(w http.ResponseWriter, r *http.Request) {
	// Bracket the whole request (decode + parse + encode) in the
	// in-flight gauge: a /metrics scrape mid-loadtest shows how many
	// requests the process is actually holding.
	vm.AddInflight(1)
	defer vm.AddInflight(-1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, ErrorResponse{
			Error: "bad-request", Message: "POST required"})
		return
	}
	maxBody := s.cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	var req ParseRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, ErrorResponse{
			Error: "bad-request", Message: "invalid request body: " + err.Error()})
		return
	}
	if req.Grammar == "" {
		writeError(w, http.StatusBadRequest, ErrorResponse{
			Error: "bad-request", Message: "missing grammar"})
		return
	}
	base := s.cfg.Limits
	slowParse := s.cfg.SlowParse
	if slowParse <= 0 {
		slowParse = DefaultSlowParse
	}
	var p *modpeg.Parser
	servedVersion := 0
	switch {
	case req.Tenant != "":
		// Registry-backed parse: lease the tenant's grammar version
		// (active, or pinned by req.Version) and hold the lease until
		// the response is written — the in-flight count is the drain
		// signal a hot swap's old version waits out.
		if s.cfg.Registry == nil {
			writeError(w, http.StatusBadRequest, ErrorResponse{
				Error: "bad-request", Message: "this server has no grammar registry"})
			return
		}
		if req.Production != "" {
			writeError(w, http.StatusBadRequest, ErrorResponse{
				Error: "bad-request", Message: "production override is not supported for registry grammars"})
			return
		}
		lease, err := s.cfg.Registry.Acquire(req.Tenant, req.Grammar, req.Version)
		if err != nil {
			status, resp := registryStatus(err)
			writeError(w, status, resp)
			return
		}
		defer lease.Release()
		p = lease.Parser
		base = base.Tighten(lease.Limits)
		servedVersion = lease.Version
		if lease.SlowParse > 0 {
			slowParse = lease.SlowParse
		}
	default:
		if s.allowed != nil && !s.allowed[req.Grammar] {
			writeError(w, http.StatusBadRequest, ErrorResponse{
				Error: "unknown-grammar",
				Message: fmt.Sprintf("grammar %q is not served (configured: %v)",
					req.Grammar, s.Grammars())})
			return
		}
		if req.Version != 0 {
			writeError(w, http.StatusBadRequest, ErrorResponse{
				Error: "bad-request", Message: "version pinning requires a tenant"})
			return
		}
		var err error
		p, err = s.parserFor(req.Grammar, req.Production)
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrorResponse{
				Error: "unknown-grammar", Message: err.Error()})
			return
		}
	}

	name := req.Name
	if name == "" {
		name = "request"
	}
	lim := effectiveLimits(base, &req)

	var profiler *modpeg.Profiler
	traceID := traceIDFrom(r.Context())
	start := time.Now()
	preq := modpeg.Request{Limits: lim, TraceID: traceID}
	if req.Profile {
		profiler = p.NewProfiler()
		preq.Hook = profiler
	}
	val, st, parseErr := p.ParseRequest(r.Context(), name, req.Input, preq)
	elapsed := time.Since(start)
	telemetry.LogParse(s.cfg.Logger, p.Label(), name, len(req.Input), elapsed, st, parseErr)
	if trigger := flightTrigger(elapsed, slowParse, parseErr); trigger != "" {
		s.recordFlight(w, &req, traceID, p.Label(), trigger, elapsed, lim, st, parseErr, profiler)
	}

	if parseErr != nil {
		s.writeParseError(w, parseErr)
		return
	}
	resp := ParseResponse{
		Grammar:    req.Grammar,
		Tenant:     req.Tenant,
		Version:    servedVersion,
		Production: req.Production,
		Stats:      statsJSON(st),
		DurationNS: elapsed.Nanoseconds(),
	}
	if profiler != nil {
		if pj, err := profiler.Profile().JSON(); err == nil {
			resp.Profile = pj
		}
	}
	body := bodyPool.Get().(*[]byte)
	*body = appendParseResponse(*body, &resp, val, req.OmitValue)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(*body)
	putBody(body)
}

// appendParseResponse appends the wire form of resp: the bytes
// json.NewEncoder(w).Encode(resp) writes, trailing newline included,
// with the value appended straight from val by ast.AppendJSON instead
// of taken from resp.Value (omitValue leaves the field out, as an empty
// resp.Value does). The profile is compacted as the encoder compacts a
// json.RawMessage.
func appendParseResponse(b []byte, resp *ParseResponse, val modpeg.Value, omitValue bool) []byte {
	b = append(b, `{"grammar":`...)
	b = ast.AppendJSONString(b, resp.Grammar)
	if resp.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = ast.AppendJSONString(b, resp.Tenant)
	}
	if resp.Version != 0 {
		b = appendInt(b, `,"version":`, int64(resp.Version))
	}
	if resp.Production != "" {
		b = append(b, `,"production":`...)
		b = ast.AppendJSONString(b, resp.Production)
	}
	if !omitValue {
		b = append(b, `,"value":`...)
		b = ast.AppendJSON(b, val)
	}
	st := &resp.Stats
	b = appendInt(b, `,"stats":{"calls":`, int64(st.Calls))
	b = appendInt(b, `,"dispatch_skips":`, int64(st.DispatchSkips))
	b = appendInt(b, `,"memo_hits":`, int64(st.MemoHits))
	b = appendInt(b, `,"memo_misses":`, int64(st.MemoMisses))
	b = appendInt(b, `,"memo_stores":`, int64(st.MemoStores))
	b = appendInt(b, `,"memo_bytes":`, int64(st.MemoBytes))
	if st.MemoSheds != 0 {
		b = appendInt(b, `,"memo_sheds":`, int64(st.MemoSheds))
	}
	b = appendInt(b, `,"max_pos":`, int64(st.MaxPos))
	b = appendInt(b, `},"duration_ns":`, resp.DurationNS)
	if len(resp.Profile) > 0 {
		buf := bytes.NewBuffer(append(b, `,"profile":`...))
		if err := json.Compact(buf, resp.Profile); err == nil {
			b = buf.Bytes()
		}
	}
	return append(b, "}\n"...)
}

func appendInt(b []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(b, key...), n, 10)
}

// maxPooledBody caps the response buffers bodyPool keeps. It sits
// above the bodies of ordinary documents (a 32 KB JSON document's is
// about 560 KB), since a body that regrows from a small buffer on every
// request multiplies the garbage and with it the collections, and each
// collection empties the pools. A buffer that grew past the cap (the
// 1.9 MB body of a 64 KB adversarial expression, for one) goes to the
// collector instead of pinning its memory in the pool.
const maxPooledBody = 1 << 20

// bodyPool recycles /parse success-body buffers; putBody returns them.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// putBody returns b to bodyPool, emptied, unless it grew past
// maxPooledBody; it reports whether b was kept.
func putBody(b *[]byte) bool {
	if cap(*b) > maxPooledBody {
		return false
	}
	*b = (*b)[:0]
	bodyPool.Put(b)
	return true
}

// writeParseError maps engine errors onto HTTP statuses: syntax errors
// are 422 with the expected-set and location, input-size breaches 413,
// deadline/cancellation 408, other budget breaches 422 with the limit
// kind, and contained engine panics 500.
func (s *Server) writeParseError(w http.ResponseWriter, err error) {
	var pe *modpeg.ParseError
	var le *modpeg.LimitError
	var ee *modpeg.EngineError
	switch {
	case errors.As(err, &le):
		status := http.StatusUnprocessableEntity
		switch le.Kind {
		case modpeg.LimitInput:
			status = http.StatusRequestEntityTooLarge
		case modpeg.LimitTime, modpeg.LimitCanceled:
			status = http.StatusRequestTimeout
		}
		writeError(w, status, ErrorResponse{
			Error: "limit", Kind: le.Kind.String(), Message: err.Error()})
	case errors.As(err, &pe):
		loc := pe.Src.Location(pe.Pos)
		writeError(w, http.StatusUnprocessableEntity, ErrorResponse{
			Error:    "syntax",
			Message:  pe.Error(),
			Expected: pe.Expected,
			Location: &LocationJSON{
				File:   loc.File,
				Line:   loc.Line,
				Column: loc.Column,
				Offset: int(loc.Offset),
			},
		})
	case errors.As(err, &ee):
		writeError(w, http.StatusInternalServerError, ErrorResponse{
			Error: "engine", Message: err.Error()})
	default:
		writeError(w, http.StatusInternalServerError, ErrorResponse{
			Error: "engine", Message: err.Error()})
	}
}
