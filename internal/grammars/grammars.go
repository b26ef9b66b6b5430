// Package grammars bundles the repository's grammar modules — the
// evaluation objects of the reproduction: a calculator (with extension
// modules), JSON, a Java subset (with three extensions and an embedded-SQL
// composition demo), and a C subset.
//
// The .mpeg sources are embedded in the binary; Resolver exposes them to
// the composition engine, and Compose is a convenience wrapper for the
// common case.
package grammars

import (
	"embed"
	"fmt"
	"strings"
	"sync"

	"modpeg/internal/core"
	"modpeg/internal/peg"
	"modpeg/internal/syntax"
	"modpeg/internal/text"
)

//go:embed modules/*.mpeg
var moduleFS embed.FS

// Top-module names of the bundled grammars.
const (
	CalcCore    = "calc.core"
	CalcFull    = "calc.full"
	JSON        = "json.value"
	JSONRelaxed = "json.relaxed"
	JavaCore    = "java.core"
	JavaFull    = "java.full"
	JavaSQL     = "demo.javasql.top"
	CCore       = "c.core"
	CFull       = "c.full"
	SQL         = "sql"
)

// TopModules lists the composable top-level grammars bundled with modpeg.
func TopModules() []string {
	return []string{CalcCore, CalcFull, JSON, JSONRelaxed, JavaCore, JavaFull, JavaSQL, CCore, CFull, SQL}
}

// ModuleNames lists every bundled module, sorted.
func ModuleNames() []string {
	entries, err := moduleFS.ReadDir("modules")
	if err != nil {
		panic(fmt.Sprintf("grammars: embedded modules unreadable: %v", err))
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".mpeg"))
	}
	return names
}

// embeddedResolver resolves bundled module names.
type embeddedResolver struct{}

// Resolver returns a core.Resolver over the embedded modules. It is a
// core.ModuleResolver: each bundled module is parsed at most once per
// process, and every composition shares that parse.
func Resolver() core.Resolver { return embeddedResolver{} }

func (embeddedResolver) Resolve(name string) (*text.Source, error) {
	data, err := moduleFS.ReadFile("modules/" + name + ".mpeg")
	if err != nil {
		return nil, fmt.Errorf("grammars: unknown bundled module %q", name)
	}
	return text.NewSource(name+".mpeg", string(data)), nil
}

// parsedModule is one bundled module, parsed on first use.
type parsedModule struct {
	once sync.Once
	mod  *peg.Module
}

// parsedModules holds an entry for every bundled module and for nothing
// else, so the cache is bounded by the embedded sources.
var parsedModules = sync.OnceValue(func() map[string]*parsedModule {
	m := map[string]*parsedModule{}
	for _, name := range ModuleNames() {
		m[name] = &parsedModule{}
	}
	return m
})

// ResolveModule implements core.ModuleResolver.
func (r embeddedResolver) ResolveModule(name string) (*peg.Module, *text.Source, error) {
	if p := parsedModules()[name]; p != nil {
		p.once.Do(func() {
			// A bundled name always resolves. A module that does not
			// parse keeps no parse and goes back as source below, so
			// the composer reports its errors.
			src, _ := r.Resolve(name)
			p.mod, _ = syntax.Parse(src)
		})
		if p.mod != nil {
			return p.mod, nil, nil
		}
	}
	src, err := r.Resolve(name)
	return nil, src, err
}

// Source returns the raw text of a bundled module.
func Source(name string) (string, error) {
	data, err := moduleFS.ReadFile("modules/" + name + ".mpeg")
	if err != nil {
		return "", fmt.Errorf("grammars: unknown bundled module %q", name)
	}
	return string(data), nil
}

// Compose composes a bundled top module into a closed grammar.
func Compose(top string) (*peg.Grammar, error) {
	return core.Compose(top, Resolver())
}
