package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modpeg"
)

// Test grammars: a tiny self-contained base language ("a" sequences)
// plus extension modules exercising every modification form the paper
// defines (+=, -=, :=) against an already-registered base.

const baseV1 = `module t.base;
option root = Top;
public Top = Item+ EOF ;
Item = <a> "a" ;
void EOF = !. ;
`

// baseV2 accepts "a" and "z" — a compatible upgrade of the base.
const baseV2 = `module t.base;
option root = Top;
public Top = Item+ EOF ;
Item = <a> "a" / <z> "z" ;
void EOF = !. ;
`

// baseOnlyB accepts only "b" — used to prove swaps are all-or-nothing.
const baseOnlyB = `module t.base;
option root = Top;
public Top = Item+ EOF ;
Item = <b> "b" ;
void EOF = !. ;
`

// extAdd splices a new alternative into the base without touching it.
const extAdd = `module t.ext;
modify t.base;
option root = t.base.Top;
Item += <b> "b" ;
`

// extCut removes the base's <a> alternative and substitutes <c>.
const extCut = `module t.cut;
modify t.base;
option root = t.base.Top;
Item += <c> "c" ;
Item -= a ;
`

// extOverride replaces the Item production outright.
const extOverride = `module t.over;
modify t.base;
option root = t.base.Top;
Item := <d> "d" ;
`

func testRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	if cfg.DefaultLimits == (modpeg.Limits{}) {
		cfg.DefaultLimits = modpeg.Limits{
			MaxInputBytes:    1 << 20,
			MaxMemoBytes:     16 << 20,
			MaxCallDepth:     10000,
			MaxParseDuration: 5 * time.Second,
		}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustUpload(t *testing.T, r *Registry, tenant, name string, up Upload) VersionInfo {
	t.Helper()
	info, err := r.Upload(context.Background(), tenant, name, up)
	if err != nil {
		t.Fatalf("upload %s/%s: %v", tenant, name, err)
	}
	return info
}

// parseWith leases (tenant, name, version) and reports whether input
// parses under the lease.
func parseWith(t *testing.T, r *Registry, tenant, name string, version int, input string) bool {
	t.Helper()
	lease, err := r.Acquire(tenant, name, version)
	if err != nil {
		t.Fatalf("acquire %s/%s@%d: %v", tenant, name, version, err)
	}
	defer lease.Release()
	_, err = lease.Parser.ParseContext(context.Background(), "test", input, lease.Limits)
	if err != nil {
		var pe *modpeg.ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("parse %q: non-syntax error %v", input, err)
		}
		return false
	}
	return true
}

func wantKind(t *testing.T, err error, kind ErrKind) *Error {
	t.Helper()
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *registry.Error", err)
	}
	if re.Kind != kind {
		t.Fatalf("error kind = %q, want %q (%v)", re.Kind, kind, err)
	}
	return re
}

func TestUploadActivateParse(t *testing.T) {
	r := testRegistry(t, Config{})
	info := mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
	if info.Version != 1 || info.State != string(stateActive) {
		t.Fatalf("info = %+v, want version 1 active", info)
	}
	if !parseWith(t, r, "acme", "t.base", 0, "aaa") {
		t.Error(`"aaa" must parse against the active base`)
	}
	if parseWith(t, r, "acme", "t.base", 0, "b") {
		t.Error(`"b" must not parse against base v1`)
	}
	lease, err := r.Acquire("acme", "t.base", 0)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Label != "acme/t.base@v1" || lease.Version != 1 {
		t.Errorf("lease = %q v%d", lease.Label, lease.Version)
	}
	lease.Release()
}

func TestUploadValidation(t *testing.T) {
	r := testRegistry(t, Config{MaxSourceBytes: 256})
	ctx := context.Background()
	cases := []struct {
		name    string
		tenant  string
		grammar string
		up      Upload
		kind    ErrKind
	}{
		{"empty source", "acme", "t.base", Upload{}, KindBadRequest},
		{"bad tenant", "Not A Tenant", "t.base", Upload{Source: baseV1}, KindBadRequest},
		{"bad grammar name", "acme", "../../etc/passwd", Upload{Source: baseV1}, KindBadRequest},
		{"unparsable source", "acme", "t.base", Upload{Source: "not a module"}, KindModule},
		{"name mismatch", "acme", "t.other", Upload{Source: baseV1}, KindModule},
		{"oversized source", "acme", "t.base", Upload{Source: baseV1 + strings.Repeat("// pad\n", 64)}, KindCapacity},
	}
	for _, tc := range cases {
		_, err := r.Upload(ctx, tc.tenant, tc.grammar, tc.up)
		if err == nil {
			t.Errorf("%s: upload succeeded, want %q error", tc.name, tc.kind)
			continue
		}
		var re *Error
		if !errors.As(err, &re) {
			t.Errorf("%s: untyped error %v", tc.name, err)
			continue
		}
		if re.Kind != tc.kind {
			t.Errorf("%s: kind %q, want %q (%v)", tc.name, re.Kind, tc.kind, err)
		}
	}
	// Pre-build rejects consume no version number and create no state.
	if got := len(r.List().Tenants); got != 0 {
		t.Errorf("rejected uploads left %d tenants behind", got)
	}

	// A module that parses but does not compose fails later, in the
	// build: it is recorded as a failed version (visible in listings,
	// never servable).
	_, err := r.Upload(ctx, "acme", "t.dangling",
		Upload{Source: "module t.dangling;\nmodify t.nonexistent;\nX += <q> \"q\" ;\n"})
	wantKind(t, err, KindModule)
	gi, err := r.Grammar("acme", "t.dangling")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Active != 0 || len(gi.Versions) != 1 || gi.Versions[0].State != string(stateFailed) {
		t.Errorf("non-composing upload recorded as %+v, want one failed version", gi)
	}
	if _, err := r.Acquire("acme", "t.dangling", 0); err == nil {
		t.Error("grammar with only a failed version must not be acquirable")
	}
}

// TestModificationForms registers a base and then exercises +=, -=, and
// := extension modules against it — the paper's module modification
// machinery driven entirely through the runtime upload path.
func TestModificationForms(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})

	mustUpload(t, r, "acme", "t.ext", Upload{Source: extAdd})
	if !parseWith(t, r, "acme", "t.ext", 0, "ab") {
		t.Error(`+=: "ab" must parse against the extension`)
	}
	if parseWith(t, r, "acme", "t.base", 0, "b") {
		t.Error(`+=: the base grammar must be unaffected by the extension`)
	}

	mustUpload(t, r, "acme", "t.cut", Upload{Source: extCut})
	if !parseWith(t, r, "acme", "t.cut", 0, "cc") {
		t.Error(`-=: "cc" must parse after substitution`)
	}
	if parseWith(t, r, "acme", "t.cut", 0, "a") {
		t.Error(`-=: removed alternative <a> must no longer parse`)
	}

	mustUpload(t, r, "acme", "t.over", Upload{Source: extOverride})
	if !parseWith(t, r, "acme", "t.over", 0, "d") || parseWith(t, r, "acme", "t.over", 0, "a") {
		t.Error(`:=: override must accept "d" and drop "a"`)
	}
}

// TestTenantIsolation: one tenant's registered grammars are invisible
// to another tenant's compositions.
func TestTenantIsolation(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
	_, err := r.Upload(context.Background(), "rival", "t.ext", Upload{Source: extAdd})
	wantKind(t, err, KindModule)
	if _, err := r.Acquire("rival", "t.base", 0); err == nil {
		t.Error("rival must not acquire acme's grammar")
	}
}

func TestSmokeGate(t *testing.T) {
	r := testRegistry(t, Config{})
	probes := []Probe{
		{Name: "accepts-a", Input: "aa"},
		{Name: "rejects-q", Input: "q", Fail: true},
	}
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1, Probes: probes})

	// baseOnlyB cannot parse "aa", so the inherited probe corpus must
	// keep it from activating.
	_, err := r.Upload(context.Background(), "acme", "t.base", Upload{Source: baseOnlyB})
	wantKind(t, err, KindSmoke)
	gi, err := r.Grammar("acme", "t.base")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Active != 1 {
		t.Fatalf("active = v%d after failed upload, want v1", gi.Active)
	}
	if len(gi.Versions) != 2 || gi.Versions[1].State != string(stateFailed) || gi.Versions[1].Error == "" {
		t.Fatalf("failed version not recorded: %+v", gi.Versions)
	}
	if !parseWith(t, r, "acme", "t.base", 0, "aa") {
		t.Error("active version must keep serving after a failed upload")
	}
	// The failed version is not servable even by pin.
	if _, err := r.Acquire("acme", "t.base", 2); err == nil {
		t.Error("failed version must not be acquirable")
	}

	// A Fail probe that parses is a smoke failure too: baseV2 accepts
	// "z", so a corpus declaring "z" must-fail gates it.
	_, err = r.Upload(context.Background(), "acme", "t.base", Upload{
		Source: baseV2,
		Probes: []Probe{{Input: "aa"}, {Name: "z-must-fail", Input: "z", Fail: true}},
	})
	wantKind(t, err, KindSmoke)
}

func TestVersionPinAndRollback(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
	info := mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2})
	if info.Version != 2 || info.State != string(stateActive) {
		t.Fatalf("v2 info = %+v", info)
	}
	// Active serves v2; v1 stays pinnable.
	if !parseWith(t, r, "acme", "t.base", 0, "az") {
		t.Error(`active must serve v2 ("z" accepted)`)
	}
	if parseWith(t, r, "acme", "t.base", 1, "z") {
		t.Error(`pinned v1 must still reject "z"`)
	}

	// Rollback: deleting the active version reactivates v1.
	res, err := r.Delete("acme", "t.base", 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewActive != 1 {
		t.Fatalf("delete result = %+v, want new_active 1", res)
	}
	if parseWith(t, r, "acme", "t.base", 0, "z") {
		t.Error("after rollback the active version must reject \"z\"")
	}
	if _, err := r.Acquire("acme", "t.base", 2); err == nil {
		t.Error("deleted version must not be acquirable")
	}
	// The deleted version's per-grammar counters are no longer exported;
	// the surviving version's are.
	if got := modpeg.Metrics().Grammars; got[Label("acme", "t.base", 2)].ParsesStarted != 0 || got[Label("acme", "t.base", 1)].ParsesStarted == 0 {
		t.Errorf("per-grammar counters after deleting v2: %v", got)
	}

	// Deleting the last version removes the grammar and its tenant.
	if _, err := r.Delete("acme", "t.base", 1); err != nil {
		t.Fatal(err)
	}
	_, err = r.Acquire("acme", "t.base", 0)
	wantKind(t, err, KindNotFound)
	if got := len(r.List().Tenants); got != 0 {
		t.Errorf("empty tenant still listed (%d tenants)", got)
	}
}

func TestNoActivate(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
	info := mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2, NoActivate: true})
	if info.State != string(stateReady) {
		t.Fatalf("no-activate upload state = %q, want ready", info.State)
	}
	if parseWith(t, r, "acme", "t.base", 0, "z") {
		t.Error("no-activate upload must not change the active version")
	}
	if !parseWith(t, r, "acme", "t.base", 2, "z") {
		t.Error("no-activate version must be servable by pin")
	}
	// Deleting the active v1 promotes the staged v2.
	res, err := r.Delete("acme", "t.base", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewActive != 2 {
		t.Fatalf("delete result = %+v, want new_active 2", res)
	}
	if !parseWith(t, r, "acme", "t.base", 0, "z") {
		t.Error("staged version must serve after promotion")
	}
}

func TestCapacityCaps(t *testing.T) {
	r := testRegistry(t, Config{MaxTenants: 1, MaxGrammarsPerTenant: 1, MaxVersionsPerGrammar: 2})
	ctx := context.Background()
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})

	_, err := r.Upload(ctx, "rival", "t.base", Upload{Source: baseV1})
	wantKind(t, err, KindCapacity)
	_, err = r.Upload(ctx, "acme", "t.ext", Upload{Source: extAdd})
	wantKind(t, err, KindCapacity)

	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2})
	_, err = r.Upload(ctx, "acme", "t.base", Upload{Source: baseV1})
	wantKind(t, err, KindCapacity)
	// Deleting a version frees a slot.
	if _, err := r.Delete("acme", "t.base", 1); err != nil {
		t.Fatal(err)
	}
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
}

func TestTenantLimitsTightenOnly(t *testing.T) {
	r := testRegistry(t, Config{DefaultLimits: modpeg.Limits{
		MaxInputBytes: 1000, MaxCallDepth: 10000, MaxParseDuration: time.Second,
	}})
	mustUpload(t, r, "acme", "t.base", Upload{
		Source: baseV1,
		Limits: &modpeg.Limits{MaxInputBytes: 10},
	})
	if got := r.Limits("acme").MaxInputBytes; got != 10 {
		t.Fatalf("tenant MaxInputBytes = %d, want 10", got)
	}
	// A later upload cannot loosen the budget back.
	mustUpload(t, r, "acme", "t.base", Upload{
		Source: baseV1,
		Limits: &modpeg.Limits{MaxInputBytes: 5000},
	})
	if got := r.Limits("acme").MaxInputBytes; got != 10 {
		t.Fatalf("tenant MaxInputBytes loosened to %d", got)
	}
	// The tightened budget is enforced through the lease.
	lease, err := r.Acquire("acme", "t.base", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	_, err = lease.Parser.ParseContext(context.Background(), "big", strings.Repeat("a", 50), lease.Limits)
	var le *modpeg.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("oversized parse error = %v, want a limit error", err)
	}
}

func TestListingShape(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "beta", "t.base", Upload{Source: baseV1})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
	mustUpload(t, r, "acme", "t.ext", Upload{Source: extAdd})
	l := r.List()
	if len(l.Tenants) != 2 || l.Tenants[0].Name != "acme" || l.Tenants[1].Name != "beta" {
		t.Fatalf("tenants = %+v", l.Tenants)
	}
	gs := l.Tenants[0].Grammars
	if len(gs) != 2 || gs[0].Name != "t.base" || gs[1].Name != "t.ext" {
		t.Fatalf("acme grammars = %+v", gs)
	}
	if gs[0].Versions[0].Label != "acme/t.base@v1" {
		t.Errorf("label = %q", gs[0].Versions[0].Label)
	}
}

func TestPersistenceReload(t *testing.T) {
	dir := t.TempDir()
	probes := []Probe{{Name: "smoke", Input: "aa"}}
	r := testRegistry(t, Config{Dir: dir})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1, Probes: probes})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2})
	mustUpload(t, r, "acme", "t.ext", Upload{Source: extAdd})
	// Roll back so the recorded active version (1) differs from the
	// highest persisted one (2) — reload must honor the recording.
	if _, err := r.Delete("acme", "t.base", 2); err != nil {
		t.Fatal(err)
	}
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2, NoActivate: true})

	r2 := testRegistry(t, Config{Dir: dir})
	gi, err := r2.Grammar("acme", "t.base")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Active != 1 {
		t.Fatalf("reloaded active = v%d, want v1", gi.Active)
	}
	if len(gi.Versions) != 2 {
		t.Fatalf("reloaded versions = %+v", gi.Versions)
	}
	if !parseWith(t, r2, "acme", "t.base", 0, "aa") || parseWith(t, r2, "acme", "t.base", 0, "z") {
		t.Error("reloaded active version must behave like v1")
	}
	if !parseWith(t, r2, "acme", "t.base", 3, "z") {
		t.Error("reloaded staged version must stay pinnable")
	}
	if !parseWith(t, r2, "acme", "t.ext", 0, "ab") {
		t.Error("reloaded extension must still compose against the base")
	}
	// Version numbering continues past the persisted high-water mark.
	info := mustUpload(t, r2, "acme", "t.base", Upload{Source: baseV1})
	if info.Version != 4 {
		t.Errorf("post-reload upload got version %d, want 4", info.Version)
	}
}

func TestPersistenceSkipsFailedVersions(t *testing.T) {
	dir := t.TempDir()
	r := testRegistry(t, Config{Dir: dir})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1, Probes: []Probe{{Input: "aa"}}})
	if _, err := r.Upload(context.Background(), "acme", "t.base", Upload{Source: baseOnlyB}); err == nil {
		t.Fatal("smoke-failing upload must error")
	}
	if _, err := os.Stat(filepath.Join(dir, "acme", "t.base", "v2.mpeg")); err == nil {
		t.Error("failed upload left v2.mpeg on disk")
	}
	r2 := testRegistry(t, Config{Dir: dir})
	gi, err := r2.Grammar("acme", "t.base")
	if err != nil {
		t.Fatal(err)
	}
	if len(gi.Versions) != 1 || gi.Active != 1 {
		t.Fatalf("reloaded grammar carries the failed version: %+v", gi)
	}
}

// ------------------------------------------------------- race coverage
//
// These tests are written for -race: they hammer the swap, drain, and
// failed-build paths from many goroutines and assert the atomicity
// contract — a request parses entirely against the version it leased,
// and a failed build never touches the active pointer.

// TestSwapNeverMixed uploads versions whose languages are disjoint
// ({"a"} vs {"b"}) while parser goroutines run. Each iteration leases
// once and parses both probe inputs on that single lease: whatever the
// leased version is, exactly one input must parse and it must be the
// one matching the lease's version — any other outcome means a request
// observed a half-swapped grammar.
func TestSwapNeverMixed(t *testing.T) {
	r := testRegistry(t, Config{MaxVersionsPerGrammar: 1000})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})

	const parsers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var iterations atomic.Int64
	for w := 0; w < parsers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lease, err := r.Acquire("acme", "t.base", 0)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				okA := parses(lease, "aaa")
				okB := parses(lease, "bbb")
				odd := lease.Version%2 == 1
				if odd && (!okA || okB) {
					t.Errorf("v%d (odd, language {a}) parsed a=%v b=%v", lease.Version, okA, okB)
				}
				if !odd && (okA || !okB) {
					t.Errorf("v%d (even, language {b}) parsed a=%v b=%v", lease.Version, okA, okB)
				}
				lease.Release()
				iterations.Add(1)
				if t.Failed() {
					return
				}
			}
		}()
	}

	// Swap back and forth: odd versions accept only "a", even only "b".
	// Keep swapping until the parsers have observed plenty of leases
	// (bounded by an upload cap so a wedged parser can't hang the test).
	for n := 2; iterations.Load() < 500 && n < 200 && !t.Failed(); n++ {
		src := baseOnlyB // even version numbers: language {b}
		if n%2 == 1 {
			src = baseV1 // odd version numbers: language {a}
		}
		mustUpload(t, r, "acme", "t.base", Upload{Source: src})
	}
	close(stop)
	wg.Wait()
	if iterations.Load() == 0 {
		t.Error("no parser iterations completed")
	}
}

func parses(l *Lease, input string) bool {
	_, err := l.Parser.ParseContext(context.Background(), "race", input, l.Limits)
	return err == nil
}

// TestFailedBuildsNeverReplaceActive uploads a mix of broken and
// smoke-failing sources from many goroutines; the active version must
// keep serving v1's language throughout and afterwards.
func TestFailedBuildsNeverReplaceActive(t *testing.T) {
	r := testRegistry(t, Config{MaxVersionsPerGrammar: 1000})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1, Probes: []Probe{{Input: "aa"}}})

	bad := []Upload{
		{Source: "module t.base; syntax error"},
		{Source: baseOnlyB},                     // fails the "aa" probe
		{Source: strings.Repeat("//x\n", 1<<6)}, // not a module at all
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				up := bad[(w+i)%len(bad)]
				if _, err := r.Upload(context.Background(), "acme", "t.base", up); err == nil {
					t.Error("broken upload unexpectedly succeeded")
				}
				lease, err := r.Acquire("acme", "t.base", 0)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if !parses(lease, "aa") {
					t.Errorf("active version stopped parsing \"aa\" (v%d)", lease.Version)
				}
				lease.Release()
			}
		}(w)
	}
	wg.Wait()
	gi, err := r.Grammar("acme", "t.base")
	if err != nil {
		t.Fatal(err)
	}
	if gi.Active != 1 {
		t.Fatalf("active = v%d after failed uploads, want v1", gi.Active)
	}
}

// TestDrainCount: after a swap the old version's in-flight count is
// visible in listings and falls to zero as leases release.
func TestDrainCount(t *testing.T) {
	r := testRegistry(t, Config{})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})

	const held = 5
	leases := make([]*Lease, held)
	for i := range leases {
		l, err := r.Acquire("acme", "t.base", 0)
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = l
	}
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2})

	inflight := func(version int) int64 {
		gi, err := r.Grammar("acme", "t.base")
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range gi.Versions {
			if v.Version == version {
				return v.Inflight
			}
		}
		t.Fatalf("version %d not listed", version)
		return 0
	}
	if got := inflight(1); got != held {
		t.Fatalf("old version in-flight = %d, want %d", got, held)
	}
	// Held leases keep parsing the old program after the swap.
	if !parses(leases[0], "aa") || parses(leases[0], "z") {
		t.Error("drained version's lease must still serve v1's language")
	}
	for _, l := range leases {
		l.Release()
	}
	if got := inflight(1); got != 0 {
		t.Fatalf("old version in-flight = %d after release, want 0", got)
	}
}

// TestConcurrentUploadsDistinctVersions: concurrent uploads of the same
// grammar all get distinct version numbers and exactly one ends active.
func TestConcurrentUploadsDistinctVersions(t *testing.T) {
	r := testRegistry(t, Config{MaxVersionsPerGrammar: 1000})
	const n = 16
	var wg sync.WaitGroup
	seen := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := r.Upload(context.Background(), "acme", "t.base", Upload{Source: baseV1})
			if err != nil {
				t.Errorf("upload: %v", err)
				return
			}
			seen <- info.Version
		}()
	}
	wg.Wait()
	close(seen)
	versions := make(map[int]bool)
	for v := range seen {
		if versions[v] {
			t.Errorf("version %d assigned twice", v)
		}
		versions[v] = true
	}
	if len(versions) != n {
		t.Fatalf("%d distinct versions, want %d", len(versions), n)
	}
	gi, err := r.Grammar("acme", "t.base")
	if err != nil {
		t.Fatal(err)
	}
	actives := 0
	for _, v := range gi.Versions {
		if v.State == string(stateActive) {
			actives++
		}
	}
	if actives != 1 || gi.Active == 0 {
		t.Fatalf("%d active versions (active=%d), want exactly 1", actives, gi.Active)
	}
}

func TestUploadCancelStillActivates(t *testing.T) {
	r := testRegistry(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the wait begins
	_, err := r.Upload(ctx, "acme", "t.base", Upload{Source: baseV1})
	if err == nil {
		t.Fatal("canceled upload must return an error to the waiter")
	}
	// ...but the background build completes and activates.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if gi, err := r.Grammar("acme", "t.base"); err == nil && gi.Active == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background build did not activate after waiter cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !parseWith(t, r, "acme", "t.base", 0, "aa") {
		t.Error("activated version must serve")
	}
}

func TestLabel(t *testing.T) {
	if got := Label("acme", "t.base", 3); got != "acme/t.base@v3" {
		t.Errorf("Label = %q", got)
	}
}

func TestErrorFormatting(t *testing.T) {
	e := &Error{Kind: KindModule, Msg: "outer", Err: fmt.Errorf("inner")}
	if e.Error() != "outer: inner" || !errors.Is(e, e.Err) {
		t.Errorf("error = %q unwrap ok=%v", e.Error(), errors.Is(e, e.Err))
	}
}

// TestObservabilitySettings covers the per-tenant tail-forensics knobs:
// the sampling rate reaches every live parser the tenant owns (and can
// move in both directions, unlike Limits), the slow-parse threshold
// rides the lease, bad values are rejected, and both survive a
// registry reload.
func TestObservabilitySettings(t *testing.T) {
	intp := func(v int) *int { return &v }
	dir := t.TempDir()
	r := testRegistry(t, Config{Dir: dir})
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV1})
	mustUpload(t, r, "acme", "t.ext", Upload{Source: extAdd, SampleEvery: intp(100), SlowParseMS: intp(40)})

	checkRate := func(name string, want int) {
		t.Helper()
		lease, err := r.Acquire("acme", name, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer lease.Release()
		if got := lease.Parser.Sampling(); got != want {
			t.Errorf("%s sampling rate = %d, want %d", name, got, want)
		}
		if want := 40 * time.Millisecond; lease.SlowParse != want {
			t.Errorf("%s lease.SlowParse = %v, want %v", name, lease.SlowParse, want)
		}
	}
	// The rate is tenant-wide: it reaches the grammar uploaded before
	// the setting existed, too.
	checkRate("t.base", 100)
	checkRate("t.ext", 100)

	// Unlike Limits, the rate may loosen as well as tighten.
	mustUpload(t, r, "acme", "t.base", Upload{Source: baseV2, SampleEvery: intp(500)})
	lease, err := r.Acquire("acme", "t.ext", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := lease.Parser.Sampling(); got != 500 {
		t.Errorf("loosened sampling rate = %d, want 500", got)
	}
	lease.Release()

	// Negative knobs are rejected up front.
	for _, up := range []Upload{
		{Source: baseV1, SampleEvery: intp(-1)},
		{Source: baseV1, SlowParseMS: intp(-5)},
	} {
		_, err := r.Upload(context.Background(), "acme", "t.base", up)
		wantKind(t, err, KindBadRequest)
	}

	// The listing surfaces the effective settings.
	l := r.List()
	if len(l.Tenants) != 1 || l.Tenants[0].SampleEvery != 500 || l.Tenants[0].SlowParseMS != 40 {
		t.Fatalf("listing observability = %+v", l.Tenants)
	}

	// Reload: both knobs are persisted tenant metadata, and the rate is
	// re-applied to the recompiled parsers.
	r2 := testRegistry(t, Config{Dir: dir})
	lease, err = r2.Acquire("acme", "t.base", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if got := lease.Parser.Sampling(); got != 500 {
		t.Errorf("reloaded sampling rate = %d, want 500", got)
	}
	if want := 40 * time.Millisecond; lease.SlowParse != want {
		t.Errorf("reloaded lease.SlowParse = %v, want %v", lease.SlowParse, want)
	}
	l = r2.List()
	if len(l.Tenants) != 1 || l.Tenants[0].SampleEvery != 500 || l.Tenants[0].SlowParseMS != 40 {
		t.Fatalf("reloaded listing observability = %+v", l.Tenants)
	}
}
