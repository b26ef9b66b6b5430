// Package registry is the multi-tenant grammar store behind `modpeg
// serve`: per-tenant namespaces of named, versioned grammars that can
// be uploaded, composed, validated, and hot-swapped at runtime without
// restarting the service. It turns the paper's core contribution —
// third-party module modification (`+=`/`-=`/`:=`) without touching
// the base grammar — into a runtime feature: a tenant uploads a base
// module, then uploads extension modules that modify it, and both
// serve traffic the moment they activate.
//
// # Lifecycle
//
// An upload reserves a monotonically increasing version number for its
// (tenant, grammar) slot, then builds in the background: the source is
// parsed, composed against the tenant's other registered grammars (the
// uploaded module may `modify` any of them) with the bundled grammars
// as fallback, compiled for the optimized engine, and smoked against
// the grammar's probe corpus — every probe input must parse (or must
// fail, for negative probes) under the tenant's budgets before the
// version may activate. Only then is the version atomically swapped in.
//
// # Swap and drain
//
// The active version of a grammar is an atomic.Pointer. A request
// acquires a lease — one pointer load plus an in-flight increment — and
// parses against an immutable compiled program, so no request can ever
// observe a half-swapped grammar: it parses entirely against the
// version it leased. After a swap the old version stays resident and
// drains: its in-flight count (visible in listings) falls to zero as
// leased requests complete, and the compiled program is only garbage
// collected once the last lease releases. A failed build never touches
// the active pointer.
//
// # Telemetry
//
// Every compiled version is labeled "tenant/grammar@vN", so the
// per-grammar labeled counters and the Prometheus exposition break
// parse traffic down by tenant, grammar, and version with no extra
// hot-path cost.
package registry

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modpeg"
	"modpeg/internal/syntax"
	"modpeg/internal/text"
	"modpeg/internal/vm"
)

// ErrKind classifies registry errors for typed HTTP mapping.
type ErrKind string

const (
	// KindBadRequest: malformed tenant/grammar names or upload fields.
	KindBadRequest ErrKind = "bad-request"
	// KindNotFound: the tenant, grammar, or version does not exist (or
	// the version is not servable — still compiling, or failed).
	KindNotFound ErrKind = "not-found"
	// KindCapacity: a registry capacity cap was hit (max tenants,
	// grammars per tenant, versions per grammar, or source size).
	KindCapacity ErrKind = "capacity"
	// KindModule: the uploaded source does not parse, declares the
	// wrong module name, or does not compose/compile.
	KindModule ErrKind = "module"
	// KindSmoke: the compiled grammar failed its probe corpus.
	KindSmoke ErrKind = "smoke"
)

// Error is the typed error every registry operation returns on
// failure. Upload, Acquire, and Delete never corrupt registry state on
// error: a failed upload leaves the active version untouched.
type Error struct {
	Kind ErrKind
	Msg  string
	Err  error // underlying cause, if any
}

func (e *Error) Error() string {
	if e.Err != nil && e.Msg != "" {
		return e.Msg + ": " + e.Err.Error()
	}
	if e.Err != nil {
		return e.Err.Error()
	}
	return e.Msg
}

func (e *Error) Unwrap() error { return e.Err }

func errf(kind ErrKind, format string, args ...any) *Error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// Config describes a registry.
type Config struct {
	// Dir persists uploaded sources and activation state; empty keeps
	// the registry in memory only. On construction a non-empty Dir is
	// reloaded: every persisted version is recompiled (against the
	// current active set) and re-smoked, and the recorded active
	// version reactivates.
	Dir string
	// MaxTenants caps the number of tenant namespaces (0 = 64).
	MaxTenants int
	// MaxGrammarsPerTenant caps named grammars per tenant (0 = 64).
	MaxGrammarsPerTenant int
	// MaxVersionsPerGrammar caps live versions per grammar (0 = 32).
	MaxVersionsPerGrammar int
	// MaxSourceBytes caps one uploaded module source (0 = 1 MiB).
	MaxSourceBytes int
	// MaxProbes caps a grammar's probe corpus (0 = 64).
	MaxProbes int
	// DefaultLimits are the per-tenant parse budgets new tenants start
	// with; an upload may tighten (never loosen) its tenant's budgets.
	DefaultLimits modpeg.Limits
	// ModuleDir optionally adds a directory of .mpeg modules to every
	// composition, between the tenant's grammars and the bundled ones.
	ModuleDir string
	// SmokeTimeout bounds each conformance probe (0 = 2s).
	SmokeTimeout time.Duration
}

func (c *Config) withDefaults() {
	if c.MaxTenants <= 0 {
		c.MaxTenants = 64
	}
	if c.MaxGrammarsPerTenant <= 0 {
		c.MaxGrammarsPerTenant = 64
	}
	if c.MaxVersionsPerGrammar <= 0 {
		c.MaxVersionsPerGrammar = 32
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.MaxProbes <= 0 {
		c.MaxProbes = 64
	}
	if c.SmokeTimeout <= 0 {
		c.SmokeTimeout = 2 * time.Second
	}
}

// Probe is one conformance check of a grammar's smoke corpus: Input
// must parse (or, with Fail set, must be rejected with a syntax error)
// before a new version may activate.
type Probe struct {
	// Name labels the probe in failure messages.
	Name string `json:"name,omitempty"`
	// Input is the probe text.
	Input string `json:"input"`
	// Fail inverts the expectation: the input must NOT parse.
	Fail bool `json:"fail,omitempty"`
}

// Upload describes one grammar-version upload.
type Upload struct {
	// Source is the .mpeg module source. Its `module` declaration must
	// match the grammar name it is uploaded under.
	Source string `json:"source"`
	// Probes, when non-nil, replaces the grammar's probe corpus (an
	// empty non-nil slice clears it). Nil keeps the existing corpus.
	Probes []Probe `json:"probes,omitempty"`
	// NoActivate compiles and smokes the version but leaves the active
	// version unchanged; the new version is servable by explicit pin
	// and can be activated later by deleting the versions above it.
	NoActivate bool `json:"no_activate,omitempty"`
	// Limits optionally tightens the tenant's parse budgets (each
	// budget may shrink, never grow; see vm.Limits.Tighten).
	Limits *modpeg.Limits `json:"limits,omitempty"`
	// Engine selects this version's parse engine: "" or "optimized"
	// for the interpreting engine, "compiled" for the closure-compiled
	// one. The choice is per version — a later upload may switch it —
	// and survives restarts.
	Engine string `json:"engine,omitempty"`
	// SampleEvery, when non-nil, sets the tenant's always-on profiling
	// rate: 1 in SampleEvery parses against any of the tenant's grammar
	// versions runs under the per-production profiler, feeding the
	// rolling sampled profiles (/debug/profiles and the hot-production
	// Prometheus counters). 0 disables sampling. Nil keeps the current
	// rate. Unlike Limits, the rate may move in either direction.
	SampleEvery *int `json:"sample_every,omitempty"`
	// SlowParseMS, when non-nil, sets the tenant's slow-parse
	// flight-recorder threshold in milliseconds: parses slower than
	// this are captured in the flight recorder. 0 restores the server
	// default. Nil keeps the current threshold.
	SlowParseMS *int `json:"slow_parse_ms,omitempty"`
}

// state is a version's lifecycle phase, guarded by its grammar's mutex
// (the data plane never reads it — it reads the active pointer).
type state string

const (
	stateCompiling state = "compiling"
	stateReady     state = "ready" // compiled and smoked; not active
	stateActive    state = "active"
	stateFailed    state = "failed"
)

// version is one immutable compiled grammar version. Everything except
// the in-flight counter is written once, before the version becomes
// visible to the data plane.
type version struct {
	number   int
	source   string
	engine   string // "" = optimized; "compiled" = closure-compiled
	created  time.Time
	st       state // guarded by grammar.mu
	failure  string
	parser   *modpeg.Parser // nil while compiling or failed
	inflight atomic.Int64
}

// grammar is one named grammar's version history inside a tenant.
type grammar struct {
	tenant, name string
	mu           sync.Mutex // control plane: uploads, deletes, activation
	nextVersion  int
	versions     []*version // ascending by number; includes failed/compiling
	probes       []Probe
	active       atomic.Pointer[version] // data plane: the serving version
}

// tenant is one namespace of grammars with its parse budgets.
type tenant struct {
	name   string
	limits modpeg.Limits // guarded by Registry.mu
	// sampleEvery and slowParse are the tenant's tail-latency
	// observability settings, guarded by Registry.mu like limits:
	// 1-in-N sampled profiling across the tenant's grammar versions
	// (0 = off) and the slow-parse flight-recorder threshold
	// (0 = server default).
	sampleEvery int
	slowParse   time.Duration
	grammars    map[string]*grammar
}

// Registry is the multi-tenant grammar store. All methods are safe for
// concurrent use; the parse path (Acquire/Release) is two map reads
// under an RLock, one atomic pointer load, and one atomic add.
type Registry struct {
	cfg     Config
	mu      sync.RWMutex
	tenants map[string]*tenant
}

// New builds a registry and, when cfg.Dir is set, reloads its
// persisted state from disk.
func New(cfg Config) (*Registry, error) {
	cfg.withDefaults()
	r := &Registry{cfg: cfg, tenants: make(map[string]*tenant)}
	if cfg.Dir != "" {
		if err := r.load(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

var (
	tenantRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)
	// grammarRe matches module names: dot-separated identifiers.
	grammarRe = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$`)
)

// maxGrammarName bounds grammar names (they become file names and
// telemetry labels).
const maxGrammarName = 128

func validateNames(tenantName, grammarName string) *Error {
	if !tenantRe.MatchString(tenantName) {
		return errf(KindBadRequest, "invalid tenant %q: want lowercase letters, digits, dashes (max 64)", tenantName)
	}
	if len(grammarName) > maxGrammarName || !grammarRe.MatchString(grammarName) {
		return errf(KindBadRequest, "invalid grammar name %q: want a dotted module name like %q", grammarName, "acme.lang")
	}
	return nil
}

// Limits returns tenant's current parse budgets (the registry default
// if the tenant does not exist yet).
func (r *Registry) Limits(tenantName string) modpeg.Limits {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if t, ok := r.tenants[tenantName]; ok {
		return t.limits
	}
	return r.cfg.DefaultLimits
}

// ------------------------------------------------------------ upload

// VersionInfo is the public snapshot of one version.
type VersionInfo struct {
	Version     int       `json:"version"`
	State       string    `json:"state"`
	Label       string    `json:"label"`
	Engine      string    `json:"engine,omitempty"`
	SourceBytes int       `json:"source_bytes"`
	CreatedAt   time.Time `json:"created_at"`
	Inflight    int64     `json:"inflight"`
	Error       string    `json:"error,omitempty"`
}

// Upload registers a new version of (tenant, name). The version number
// is reserved immediately; the build — parse, compose, compile, smoke —
// runs in a background goroutine and Upload waits for its outcome. If
// ctx is canceled while the build runs, Upload returns early with the
// context error but the build completes and records its result (the
// version activates or fails as if the client had waited). A build
// failure never changes the active version.
func (r *Registry) Upload(ctx context.Context, tenantName, name string, up Upload) (VersionInfo, error) {
	if err := validateNames(tenantName, name); err != nil {
		return VersionInfo{}, err
	}
	if up.Source == "" {
		return VersionInfo{}, errf(KindBadRequest, "empty module source")
	}
	if len(up.Source) > r.cfg.MaxSourceBytes {
		return VersionInfo{}, errf(KindCapacity, "module source is %d bytes, cap %d", len(up.Source), r.cfg.MaxSourceBytes)
	}
	if len(up.Probes) > r.cfg.MaxProbes {
		return VersionInfo{}, errf(KindCapacity, "%d probes, cap %d", len(up.Probes), r.cfg.MaxProbes)
	}
	switch up.Engine {
	case "", "optimized", "compiled":
	default:
		return VersionInfo{}, errf(KindBadRequest, "unknown engine %q (want optimized or compiled)", up.Engine)
	}
	if up.SampleEvery != nil && *up.SampleEvery < 0 {
		return VersionInfo{}, errf(KindBadRequest, "sample_every must be >= 0 (0 disables sampling)")
	}
	if up.SlowParseMS != nil && *up.SlowParseMS < 0 {
		return VersionInfo{}, errf(KindBadRequest, "slow_parse_ms must be >= 0 (0 restores the server default)")
	}

	// The module must parse and must declare the name it is uploaded
	// under, before a version number is consumed.
	mod, err := syntax.Parse(text.NewSource(name+".mpeg", up.Source))
	if err != nil {
		return VersionInfo{}, &Error{Kind: KindModule, Msg: "module source does not parse", Err: err}
	}
	if mod.Name != name {
		return VersionInfo{}, errf(KindModule, "module declares name %q but was uploaded as %q", mod.Name, name)
	}

	g, lim, err2 := r.slot(tenantName, name, up.Limits)
	if err2 != nil {
		return VersionInfo{}, err2
	}
	sampleEvery := r.applyObservability(tenantName, up.SampleEvery, up.SlowParseMS)

	// Reserve the version and snapshot the tenant's other grammars for
	// composition.
	g.mu.Lock()
	live := 0
	for _, v := range g.versions {
		if v.st != stateFailed {
			live++
		}
	}
	if live >= r.cfg.MaxVersionsPerGrammar {
		g.mu.Unlock()
		return VersionInfo{}, errf(KindCapacity, "grammar %s/%s has %d live versions, cap %d (delete one first)",
			tenantName, name, live, r.cfg.MaxVersionsPerGrammar)
	}
	g.nextVersion++
	v := &version{
		number:  g.nextVersion,
		source:  up.Source,
		engine:  up.Engine,
		created: time.Now().UTC(),
		st:      stateCompiling,
	}
	g.versions = append(g.versions, v)
	probes := g.probes
	if up.Probes != nil {
		probes = up.Probes
	}
	g.mu.Unlock()

	modules := r.snapshotSources(tenantName)
	modules[name] = up.Source // the uploaded source wins for its own name

	// Build in the background; activation happens in the build
	// goroutine so a canceled waiter does not abort the swap.
	done := make(chan error, 1)
	go func() {
		done <- r.build(g, v, modules, probes, lim, sampleEvery, up.NoActivate)
	}()
	select {
	case buildErr := <-done:
		g.mu.Lock()
		info := infoOf(v)
		g.mu.Unlock()
		return info, buildErr
	case <-ctx.Done():
		return VersionInfo{Version: v.number, State: string(stateCompiling)},
			&Error{Kind: KindBadRequest, Msg: "upload wait canceled (build continues)", Err: ctx.Err()}
	}
}

// slot finds or creates the (tenant, grammar) slot, enforcing the
// capacity caps, and applies an optional tenant-limit tightening.
// Returns the grammar and the tenant's effective limits.
func (r *Registry) slot(tenantName, name string, tighten *modpeg.Limits) (*grammar, modpeg.Limits, *Error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[tenantName]
	if t == nil {
		if len(r.tenants) >= r.cfg.MaxTenants {
			return nil, modpeg.Limits{}, errf(KindCapacity, "registry holds %d tenants, cap %d", len(r.tenants), r.cfg.MaxTenants)
		}
		t = &tenant{name: tenantName, limits: r.cfg.DefaultLimits, grammars: make(map[string]*grammar)}
		r.tenants[tenantName] = t
	}
	if tighten != nil {
		t.limits = t.limits.Tighten(*tighten)
		r.persistTenant(t)
	}
	g := t.grammars[name]
	if g == nil {
		if len(t.grammars) >= r.cfg.MaxGrammarsPerTenant {
			return nil, modpeg.Limits{}, errf(KindCapacity, "tenant %q holds %d grammars, cap %d", tenantName, len(t.grammars), r.cfg.MaxGrammarsPerTenant)
		}
		g = &grammar{tenant: tenantName, name: name}
		t.grammars[name] = g
	}
	return g, t.limits, nil
}

// applyObservability records a tenant's sampled-profiling rate and
// slow-parse threshold (a nil pointer leaves that setting unchanged)
// and pushes the rate onto every live compiled version. The registry
// lock is released before the per-grammar locks are taken: build()
// acquires g.mu and persists under it, so holding r.mu across g.mu
// would invert the lock order. Returns the tenant's effective sample
// rate, which the caller applies to the version it is about to build.
func (r *Registry) applyObservability(tenantName string, sampleEvery, slowParseMS *int) int {
	r.mu.Lock()
	t := r.tenants[tenantName]
	if t == nil {
		r.mu.Unlock()
		return 0
	}
	changed := false
	if sampleEvery != nil && t.sampleEvery != *sampleEvery {
		t.sampleEvery = *sampleEvery
		changed = true
	}
	if slowParseMS != nil {
		if d := time.Duration(*slowParseMS) * time.Millisecond; t.slowParse != d {
			t.slowParse = d
			changed = true
		}
	}
	rate := t.sampleEvery
	var grammars []*grammar
	if changed {
		r.persistTenant(t)
		grammars = make([]*grammar, 0, len(t.grammars))
		for _, g := range t.grammars {
			grammars = append(grammars, g)
		}
	}
	r.mu.Unlock()
	for _, g := range grammars {
		g.mu.Lock()
		for _, v := range g.versions {
			if v.parser != nil {
				v.parser.SetSampling(rate)
			}
		}
		g.mu.Unlock()
	}
	return rate
}

// snapshotSources copies the active source of every grammar in the
// tenant — the module set an uploaded extension composes against.
func (r *Registry) snapshotSources(tenantName string) map[string]string {
	out := make(map[string]string)
	r.mu.RLock()
	t := r.tenants[tenantName]
	if t != nil {
		for gname, g := range t.grammars {
			if v := g.active.Load(); v != nil {
				out[gname] = v.source
			}
		}
	}
	r.mu.RUnlock()
	return out
}

// Label returns the telemetry label of one version:
// "tenant/grammar@vN". The per-grammar labeled counters and the
// Prometheus `grammar` label use it verbatim.
func Label(tenantName, name string, number int) string {
	return tenantName + "/" + name + "@v" + strconv.Itoa(number)
}

// build compiles and smokes a reserved version, then (on success)
// records it and optionally activates it. It runs outside every
// registry lock, so in-flight parses and other uploads proceed while a
// build is running.
func (r *Registry) build(g *grammar, v *version, modules map[string]string, probes []Probe, lim modpeg.Limits, sampleEvery int, noActivate bool) error {
	parser, err := r.compile(g, v, modules)
	if err == nil {
		parser.SetSampling(sampleEvery)
		err = r.smoke(parser, probes, lim)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if v.st != stateCompiling {
		// Deleted while building: drop the result, keep the active
		// version untouched.
		return errf(KindNotFound, "version %d of %s/%s was deleted during its build", v.number, g.tenant, g.name)
	}
	if err != nil {
		v.st = stateFailed
		v.failure = err.Error()
		return err
	}
	v.parser = parser
	v.st = stateReady
	g.probes = probes
	if !noActivate {
		activateLocked(g, v)
	}
	r.persistGrammar(g)
	return nil
}

// compile composes the uploaded module against the tenant snapshot,
// the optional module directory, and the bundled grammars.
func (r *Registry) compile(g *grammar, v *version, modules map[string]string) (*modpeg.Parser, error) {
	opts := []modpeg.Option{modpeg.WithModules(modules)}
	if r.cfg.ModuleDir != "" {
		opts = append(opts, modpeg.WithModuleDir(r.cfg.ModuleDir))
	}
	if v.engine == "compiled" {
		opts = append(opts, modpeg.WithEngine(modpeg.EngineCompiled()))
	}
	parser, err := modpeg.New(g.name, opts...)
	if err != nil {
		return nil, &Error{Kind: KindModule, Msg: fmt.Sprintf("grammar %s/%s@v%d does not compose", g.tenant, g.name, v.number), Err: err}
	}
	parser.SetLabel(Label(g.tenant, g.name, v.number))
	return parser, nil
}

// smoke runs the probe corpus against a freshly compiled parser under
// the tenant's budgets (each probe additionally time-boxed), so an
// uploaded grammar that cannot parse its own corpus — or loops on it —
// never activates.
func (r *Registry) smoke(parser *modpeg.Parser, probes []Probe, lim modpeg.Limits) error {
	lim = lim.Tighten(modpeg.Limits{MaxParseDuration: r.cfg.SmokeTimeout})
	for i, p := range probes {
		name := p.Name
		if name == "" {
			name = fmt.Sprintf("probe[%d]", i)
		}
		_, err := parser.ParseContext(context.Background(), name, p.Input, lim)
		if p.Fail {
			var pe *modpeg.ParseError
			if err == nil {
				return errf(KindSmoke, "probe %q: input parsed but the probe requires a syntax rejection", name)
			}
			if !errors.As(err, &pe) {
				return &Error{Kind: KindSmoke, Msg: fmt.Sprintf("probe %q: want a syntax rejection", name), Err: err}
			}
			continue
		}
		if err != nil {
			return &Error{Kind: KindSmoke, Msg: fmt.Sprintf("probe %q failed", name), Err: err}
		}
	}
	return nil
}

// activateLocked swaps v in as the grammar's active version. Caller
// holds g.mu. The pointer store is the single linearization point: a
// request that loaded the old pointer parses entirely against the old
// compiled program; the next load sees the new one.
func activateLocked(g *grammar, v *version) {
	if old := g.active.Load(); old != nil && old != v {
		old.st = stateReady
	}
	v.st = stateActive
	g.active.Store(v)
}

// ------------------------------------------------------------ acquire

// Lease is one request's hold on a grammar version. The parser is
// immutable and remains valid for the lease's lifetime regardless of
// swaps or deletes; Release decrements the version's in-flight count
// (the drain signal listings expose).
type Lease struct {
	Tenant  string
	Grammar string
	Version int
	Label   string
	// Parser is the leased compiled grammar.
	Parser *modpeg.Parser
	// Limits are the tenant's parse budgets at acquire time.
	Limits modpeg.Limits
	// SlowParse is the tenant's slow-parse flight-recorder threshold
	// at acquire time (0 = use the server default).
	SlowParse time.Duration
	v         *version
}

// Release ends the lease. It must be called exactly once.
func (l *Lease) Release() { l.v.inflight.Add(-1) }

// Inflight reports the leased version's current in-flight count
// (including this lease).
func (l *Lease) Inflight() int64 { return l.v.inflight.Load() }

// Acquire leases a grammar version for one parse: the active version
// when versionNumber is 0, or an explicitly pinned version. Pinned
// versions may be in any servable state (active or ready — a drained
// old version stays pinnable until deleted).
func (r *Registry) Acquire(tenantName, name string, versionNumber int) (*Lease, error) {
	r.mu.RLock()
	t := r.tenants[tenantName]
	var g *grammar
	var lim modpeg.Limits
	var slow time.Duration
	if t != nil {
		g = t.grammars[name]
		lim = t.limits
		slow = t.slowParse
	}
	r.mu.RUnlock()
	if g == nil {
		return nil, errf(KindNotFound, "grammar %s/%s is not registered", tenantName, name)
	}

	var v *version
	if versionNumber == 0 {
		v = g.active.Load()
		if v == nil {
			return nil, errf(KindNotFound, "grammar %s/%s has no active version", tenantName, name)
		}
	} else {
		g.mu.Lock()
		for _, cand := range g.versions {
			if cand.number == versionNumber {
				if cand.st == stateReady || cand.st == stateActive {
					v = cand
				} else {
					g.mu.Unlock()
					return nil, errf(KindNotFound, "version %d of %s/%s is %s, not servable",
						versionNumber, tenantName, name, cand.st)
				}
				break
			}
		}
		g.mu.Unlock()
		if v == nil {
			return nil, errf(KindNotFound, "grammar %s/%s has no version %d", tenantName, name, versionNumber)
		}
	}
	v.inflight.Add(1)
	return &Lease{
		Tenant:    tenantName,
		Grammar:   name,
		Version:   v.number,
		Label:     Label(tenantName, name, v.number),
		Parser:    v.parser,
		Limits:    lim,
		SlowParse: slow,
		v:         v,
	}, nil
}

// ------------------------------------------------------------ delete

// DeleteResult reports a version deletion: the version removed, the
// in-flight count it was still draining, and the version activated in
// its place (0 when the grammar is left with no active version).
type DeleteResult struct {
	Tenant    string `json:"tenant"`
	Grammar   string `json:"grammar"`
	Deleted   int    `json:"deleted"`
	Inflight  int64  `json:"inflight"`
	NewActive int    `json:"new_active"`
}

// Delete removes one version. Deleting the active version is the
// rollback path: the highest-numbered remaining ready version
// reactivates atomically (in-flight requests on the deleted version
// drain unharmed — their leases keep the compiled program alive).
// Deleting the last version removes the grammar from its tenant.
func (r *Registry) Delete(tenantName, name string, versionNumber int) (DeleteResult, error) {
	if err := validateNames(tenantName, name); err != nil {
		return DeleteResult{}, err
	}
	r.mu.Lock()
	t := r.tenants[tenantName]
	var g *grammar
	if t != nil {
		g = t.grammars[name]
	}
	r.mu.Unlock()
	if g == nil {
		return DeleteResult{}, errf(KindNotFound, "grammar %s/%s is not registered", tenantName, name)
	}

	g.mu.Lock()
	idx := -1
	for i, v := range g.versions {
		if v.number == versionNumber {
			idx = i
			break
		}
	}
	if idx < 0 {
		g.mu.Unlock()
		return DeleteResult{}, errf(KindNotFound, "grammar %s/%s has no version %d", tenantName, name, versionNumber)
	}
	v := g.versions[idx]
	wasActive := v.st == stateActive
	v.st = stateFailed // tombstone: a concurrent build of this version drops its result
	v.failure = "deleted"
	g.versions = append(g.versions[:idx], g.versions[idx+1:]...)
	vm.ForgetLabel(Label(tenantName, name, versionNumber))
	res := DeleteResult{Tenant: tenantName, Grammar: name, Deleted: versionNumber, Inflight: v.inflight.Load()}
	if wasActive {
		var next *version
		for _, cand := range g.versions {
			if cand.st == stateReady && (next == nil || cand.number > next.number) {
				next = cand
			}
		}
		if next != nil {
			activateLocked(g, next)
			res.NewActive = next.number
		} else {
			g.active.Store(nil)
		}
	} else if a := g.active.Load(); a != nil {
		res.NewActive = a.number
	}
	empty := len(g.versions) == 0
	r.persistGrammar(g)
	g.mu.Unlock()

	if empty {
		r.mu.Lock()
		if t := r.tenants[tenantName]; t != nil {
			delete(t.grammars, name)
			if len(t.grammars) == 0 {
				delete(r.tenants, tenantName)
			}
		}
		r.mu.Unlock()
		r.removeGrammarDir(tenantName, name)
	}
	return res, nil
}

// ------------------------------------------------------------ listing

// GrammarInfo is the public snapshot of one grammar.
type GrammarInfo struct {
	Tenant   string        `json:"tenant"`
	Name     string        `json:"name"`
	Active   int           `json:"active"` // 0 = no active version
	Probes   int           `json:"probes"`
	Versions []VersionInfo `json:"versions"`
}

// TenantInfo is the public snapshot of one tenant namespace.
type TenantInfo struct {
	Name   string        `json:"name"`
	Limits modpeg.Limits `json:"limits"`
	// SampleEvery is the tenant's 1-in-N sampled-profiling rate
	// (0 = sampling off).
	SampleEvery int `json:"sample_every,omitempty"`
	// SlowParseMS is the tenant's slow-parse flight-recorder threshold
	// in milliseconds (0 = server default).
	SlowParseMS int           `json:"slow_parse_ms,omitempty"`
	Grammars    []GrammarInfo `json:"grammars"`
}

// Listing is the full registry snapshot GET /grammars serves.
type Listing struct {
	Tenants []TenantInfo `json:"tenants"`
}

func infoOf(v *version) VersionInfo {
	eng := v.engine
	if eng == "" {
		eng = "optimized"
	}
	return VersionInfo{
		Version:     v.number,
		State:       string(v.st),
		Engine:      eng,
		SourceBytes: len(v.source),
		CreatedAt:   v.created,
		Inflight:    v.inflight.Load(),
		Error:       v.failure,
	}
}

func (g *grammar) info() GrammarInfo {
	g.mu.Lock()
	defer g.mu.Unlock()
	gi := GrammarInfo{Tenant: g.tenant, Name: g.name, Probes: len(g.probes)}
	if a := g.active.Load(); a != nil {
		gi.Active = a.number
	}
	for _, v := range g.versions {
		vi := infoOf(v)
		vi.Label = Label(g.tenant, g.name, v.number)
		gi.Versions = append(gi.Versions, vi)
	}
	return gi
}

// List snapshots the whole registry, deterministically sorted.
func (r *Registry) List() Listing {
	r.mu.RLock()
	tenants := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	grammarsOf := make(map[string][]*grammar, len(tenants))
	tenantInfo := make(map[string]TenantInfo, len(tenants))
	for _, t := range tenants {
		tenantInfo[t.name] = TenantInfo{
			Name:        t.name,
			Limits:      t.limits,
			SampleEvery: t.sampleEvery,
			SlowParseMS: int(t.slowParse / time.Millisecond),
		}
		for _, g := range t.grammars {
			grammarsOf[t.name] = append(grammarsOf[t.name], g)
		}
	}
	r.mu.RUnlock()

	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	var out Listing
	for _, t := range tenants {
		ti := tenantInfo[t.name]
		gs := grammarsOf[t.name]
		sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
		for _, g := range gs {
			ti.Grammars = append(ti.Grammars, g.info())
		}
		out.Tenants = append(out.Tenants, ti)
	}
	return out
}

// Grammar snapshots one grammar, or a typed not-found error.
func (r *Registry) Grammar(tenantName, name string) (GrammarInfo, error) {
	r.mu.RLock()
	t := r.tenants[tenantName]
	var g *grammar
	if t != nil {
		g = t.grammars[name]
	}
	r.mu.RUnlock()
	if g == nil {
		return GrammarInfo{}, errf(KindNotFound, "grammar %s/%s is not registered", tenantName, name)
	}
	return g.info(), nil
}
