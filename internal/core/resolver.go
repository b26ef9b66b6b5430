package core

import (
	"fmt"
	"os"
	"path/filepath"

	"modpeg/internal/peg"
	"modpeg/internal/text"
)

// DirResolver loads module sources from files named "<module>.mpeg" inside
// a directory, e.g. module "calc.base" from "<dir>/calc.base.mpeg".
type DirResolver struct {
	Dir string
}

// Resolve implements Resolver.
func (d DirResolver) Resolve(name string) (*text.Source, error) {
	path := filepath.Join(d.Dir, name+".mpeg")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: module %q: %w", name, err)
	}
	return text.NewSource(path, string(data)), nil
}

// MultiResolver tries each resolver in order, returning the first success.
// It lets the CLI overlay user module directories on top of the embedded
// standard grammars.
type MultiResolver []Resolver

// Resolve implements Resolver.
func (m MultiResolver) Resolve(name string) (*text.Source, error) {
	_, src, err := m.resolve(name, false)
	return src, err
}

// ResolveModule implements ModuleResolver: the first resolver that knows
// name answers, with its parsed module when it keeps one, so a source
// earlier in the list shadows a parsed module of the same name later on.
func (m MultiResolver) ResolveModule(name string) (*peg.Module, *text.Source, error) {
	return m.resolve(name, true)
}

func (m MultiResolver) resolve(name string, parsed bool) (*peg.Module, *text.Source, error) {
	var firstErr error
	for _, r := range m {
		var mod *peg.Module
		var src *text.Source
		var err error
		if parsed {
			mod, src, err = resolveModule(r, name)
		} else {
			src, err = r.Resolve(name)
		}
		if err == nil {
			return mod, src, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("core: unknown module %q", name)
	}
	return nil, nil, firstErr
}

// resolveModule asks r for name's parsed module when r keeps parsed
// modules, and for its source otherwise.
func resolveModule(r Resolver, name string) (*peg.Module, *text.Source, error) {
	if mr, ok := r.(ModuleResolver); ok {
		return mr.ResolveModule(name)
	}
	src, err := r.Resolve(name)
	return nil, src, err
}
