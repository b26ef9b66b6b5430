// Package core implements the paper's central contribution: composition of
// modular parsing expression grammars.
//
// A grammar is assembled from modules (parsed by internal/syntax). Starting
// from a top module, core loads the transitive dependency closure,
// instantiates parameterized modules, resolves every nonterminal reference,
// applies production modifications, and produces a closed peg.Grammar in
// which every reference names a production of the grammar.
//
// # Names and scope
//
// Internally every production gets a *full name* "<instance>.<production>",
// where <instance> is the module name, extended with "<arg,...>" for
// parameterized instances. References inside a module resolve in this
// order:
//
//  1. module parameters (substituted with the instantiating arguments),
//  2. productions of the module itself,
//  3. public productions of its direct dependencies (unqualified; it is an
//     error if two dependencies export the same name),
//  4. qualified references "dep.module.Name" to public productions of a
//     direct dependency.
//
// Only public productions are visible across module boundaries; everything
// else is module-private.
//
// # Modifications
//
// A module that declares `modify M;` may contain modification productions
// that rewrite M's productions in place:
//
//	P := body ;            overrides P entirely
//	P += alts [before <l> / after <l>] ;   adds alternatives
//	P -= l1, l2 ;          removes labeled alternatives
//
// The expressions of added or overriding alternatives resolve in the scope
// of the *modifying* module, so extensions can introduce and reference
// their own helper productions. Modifications apply in dependency order,
// which makes composition deterministic; several independent extensions of
// the same base module compose as long as their anchors still exist.
package core

import (
	"fmt"
	"sort"
	"strings"

	"modpeg/internal/peg"
	"modpeg/internal/syntax"
	"modpeg/internal/text"
)

// Resolver maps module names to their sources. Implementations include
// MapResolver (in-memory, used by tests and uploads) and DirResolver
// (files on disk, used by the CLI).
type Resolver interface {
	Resolve(name string) (*text.Source, error)
}

// A ModuleResolver is a Resolver that can also return modules it keeps
// parsed, as the bundled grammars do. Compose uses such a module as given
// and never modifies it, so one parse can serve every composition in the
// process, concurrent ones included.
type ModuleResolver interface {
	Resolver
	// ResolveModule returns the parsed module named name, or, when it
	// keeps no parsed copy of it, its source as Resolve does.
	ResolveModule(name string) (*peg.Module, *text.Source, error)
}

// MapResolver resolves module names from an in-memory map of sources.
type MapResolver map[string]string

// Resolve implements Resolver.
func (m MapResolver) Resolve(name string) (*text.Source, error) {
	src, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown module %q", name)
	}
	return text.NewSource(name+".mpeg", src), nil
}

// instance is one instantiation of a module: the module together with the
// substitution of its parameters.
type instance struct {
	key   string // full instance name, e.g. "calc.expr<calc.lex.Space>"
	mod   *peg.Module
	subst map[string]string // parameter -> argument full production name
	deps  []instanceDep     // resolved dependencies in clause order
}

type instanceDep struct {
	inst   *instance
	modify bool
}

// composer carries the state of one composition.
type composer struct {
	resolver Resolver
	parsed   map[string]*peg.Module // module name -> parsed module
	insts    map[string]*instance   // instance key -> instance
	loading  map[string]bool        // cycle detection on instance keys
	order    []*instance            // topological (dependencies first)
	grammar  *peg.Grammar
	errs     text.ErrorList
}

// Compose loads the top module and its transitive dependencies through the
// resolver and composes them into a closed grammar.
func Compose(top string, resolver Resolver) (*peg.Grammar, error) {
	c := &composer{
		resolver: resolver,
		parsed:   map[string]*peg.Module{},
		insts:    map[string]*instance{},
		loading:  map[string]bool{},
		grammar:  &peg.Grammar{Prods: map[string]*peg.Production{}},
	}
	topInst := c.load(top, nil, nil, text.NoSpan)
	if err := c.errs.Err(); err != nil {
		return nil, err
	}
	for _, inst := range c.order {
		c.compose(inst)
	}
	if err := c.errs.Err(); err != nil {
		return nil, err
	}
	c.resolveRoot(topInst)
	c.check()
	if err := c.errs.Err(); err != nil {
		return nil, err
	}
	return c.grammar, nil
}

// ComposeModules composes pre-parsed modules (dependencies resolved among
// them by name); top names the root module.
func ComposeModules(mods []*peg.Module, top string) (*peg.Grammar, error) {
	r := moduleResolver{}
	for _, m := range mods {
		r[m.Name] = m
	}
	return Compose(top, r)
}

// moduleResolver resolves names to pre-parsed modules.
type moduleResolver map[string]*peg.Module

func (r moduleResolver) Resolve(name string) (*text.Source, error) {
	m, _, err := r.ResolveModule(name)
	if err != nil {
		return nil, err
	}
	return m.Source, nil
}

func (r moduleResolver) ResolveModule(name string) (*peg.Module, *text.Source, error) {
	m, ok := r[name]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown module %q", name)
	}
	return m, nil, nil
}

// instanceKey renders the canonical key of a module instantiated with the
// given argument full names.
func instanceKey(name string, args []string) string {
	if len(args) == 0 {
		return name
	}
	return name + "<" + strings.Join(args, ",") + ">"
}

// load parses (if necessary) and instantiates module `name` with the given
// argument full names, returning the instance. from/sp locate the import
// clause for diagnostics.
func (c *composer) load(name string, args []string, from *peg.Module, sp text.Span) *instance {
	key := instanceKey(name, args)
	if inst, ok := c.insts[key]; ok {
		return inst
	}
	if c.loading[key] {
		c.addErr(from, sp, "module dependency cycle through %q", key)
		return nil
	}

	mod, ok := c.parsed[name]
	if !ok {
		m, src, err := resolveModule(c.resolver, name)
		if err != nil {
			c.addErr(from, sp, "cannot load module %q: %v", name, err)
			return nil
		}
		if m == nil {
			if m, err = syntax.Parse(src); err != nil {
				if el, ok := err.(*text.ErrorList); ok {
					c.errs.Merge(el)
				} else {
					c.addErr(from, sp, "module %q: %v", name, err)
				}
				return nil
			}
		}
		if m.Name != name {
			c.errs.Addf(m.Source, m.Sp, "module declares name %q but was loaded as %q", m.Name, name)
			return nil
		}
		mod = m
		c.parsed[name] = mod
	}

	if len(args) != len(mod.Params) {
		c.addErr(from, sp, "module %q expects %d argument(s), got %d", name, len(mod.Params), len(args))
		return nil
	}

	inst := &instance{key: key, mod: mod, subst: map[string]string{}}
	for i, p := range mod.Params {
		inst.subst[p] = args[i]
	}

	c.loading[key] = true
	defer delete(c.loading, key)

	for _, d := range mod.Deps {
		depArgs := make([]string, 0, len(d.Args))
		argsOK := true
		for _, a := range d.Args {
			// Arguments are production references resolved in *this*
			// module's scope — but dependency instances are not loaded yet,
			// so arguments may only be parameters of this module or
			// qualified names resolved later. To keep instantiation simple
			// and predictable, arguments must be either a parameter of the
			// importing module or a fully qualified "module.Production"
			// name.
			if full, ok := inst.subst[a]; ok {
				depArgs = append(depArgs, full)
				continue
			}
			if !strings.Contains(a, ".") || !isUpperFinal(a) {
				c.errs.Addf(mod.Source, d.Sp,
					"argument %q must be a module parameter or a qualified Module.Production name", a)
				argsOK = false
				continue
			}
			depArgs = append(depArgs, a)
		}
		if !argsOK {
			continue
		}
		dep := c.load(d.Module, depArgs, mod, d.Sp)
		if dep == nil {
			continue
		}
		inst.deps = append(inst.deps, instanceDep{inst: dep, modify: d.Modify})
	}

	c.insts[key] = inst
	c.order = append(c.order, inst) // post-order: dependencies first
	return inst
}

func isUpperFinal(name string) bool {
	seg := name
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		seg = name[i+1:]
	}
	return seg != "" && seg[0] >= 'A' && seg[0] <= 'Z'
}

func (c *composer) addErr(from *peg.Module, sp text.Span, format string, args ...any) {
	var src *text.Source
	if from != nil {
		src = from.Source
	}
	c.errs.Addf(src, sp, format, args...)
}

// compose adds one instance's productions to the grammar and applies its
// modifications. Dependencies have already been composed.
func (c *composer) compose(inst *instance) {
	mod := inst.mod
	// First pass: register plain definitions so that intra-module
	// references (including mutually recursive ones) resolve.
	for _, p := range mod.Prods {
		if p.Kind != peg.Define {
			continue
		}
		full := inst.key + "." + p.Name
		if _, dup := c.grammar.Prods[full]; dup {
			c.errs.Addf(mod.Source, p.Sp, "duplicate production %q in module %q", p.Name, inst.key)
			continue
		}
		np := peg.CloneProduction(p)
		np.Name = full
		c.grammar.Add(np)
	}
	// Second pass: resolve bodies and apply modifications.
	for _, p := range mod.Prods {
		switch p.Kind {
		case peg.Define:
			full := inst.key + "." + p.Name
			def := c.grammar.Prods[full]
			if def == nil {
				continue // duplicate reported above
			}
			c.resolveExpr(inst, def.Choice, p.Sp)
			c.checkLabels(mod, def)
		case peg.Override, peg.AddAlts, peg.RemoveAlts:
			c.applyModification(inst, p)
		}
	}
}

// resolveExpr rewrites every nonterminal in e to its full name, reporting
// unresolved or ambiguous references.
func (c *composer) resolveExpr(inst *instance, e peg.Expr, sp text.Span) {
	if e == nil {
		return
	}
	peg.Walk(e, func(x peg.Expr) {
		nt, ok := x.(*peg.NonTerm)
		if !ok {
			return
		}
		full, err := c.resolveName(inst, nt.Name)
		if err != "" {
			where := nt.Span()
			if !where.IsValid() {
				where = sp
			}
			c.errs.Addf(inst.mod.Source, where, "%s", err)
			return
		}
		nt.Name = full
	})
}

// resolveName maps a reference written in module inst to a full production
// name; it returns a non-empty error message on failure.
func (c *composer) resolveName(inst *instance, name string) (string, string) {
	// 1. Parameters.
	if full, ok := inst.subst[name]; ok {
		return full, ""
	}
	// 2. Own productions (plain definitions only; a modification production
	// does not introduce a name in this module's namespace).
	if !strings.Contains(name, ".") {
		if p := inst.mod.Production(name); p != nil && p.Kind == peg.Define {
			return inst.key + "." + name, ""
		}
		// 3. Productions of direct dependencies: public ones for imports,
		// any production for modify dependencies (modification is
		// white-box — extensions may reference the modified module's
		// internals).
		var matches []string
		for _, d := range inst.deps {
			full := d.inst.key + "." + name
			if p, ok := c.grammar.Prods[full]; ok && (d.modify || p.Attrs.Has(peg.AttrPublic)) {
				matches = append(matches, full)
			}
		}
		switch len(matches) {
		case 0:
			return "", fmt.Sprintf("unresolved reference %q in module %q", name, inst.key)
		case 1:
			return matches[0], ""
		default:
			sort.Strings(matches)
			return "", fmt.Sprintf("ambiguous reference %q in module %q: %s",
				name, inst.key, strings.Join(matches, ", "))
		}
	}
	// 4. Qualified reference: longest dependency-module prefix wins.
	dot := strings.LastIndexByte(name, '.')
	modName, prodName := name[:dot], name[dot+1:]
	var matches []string
	for _, d := range inst.deps {
		if d.inst.mod.Name != modName {
			continue
		}
		full := d.inst.key + "." + prodName
		if p, ok := c.grammar.Prods[full]; ok {
			if !d.modify && !p.Attrs.Has(peg.AttrPublic) {
				return "", fmt.Sprintf("production %q of module %q is not public", prodName, modName)
			}
			matches = append(matches, full)
		}
	}
	if modName == inst.mod.Name {
		if p := inst.mod.Production(prodName); p != nil && p.Kind == peg.Define {
			matches = append(matches, inst.key+"."+prodName)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Sprintf("unresolved qualified reference %q in module %q", name, inst.key)
	case 1:
		return matches[0], ""
	default:
		sort.Strings(matches)
		return "", fmt.Sprintf("ambiguous qualified reference %q in module %q: %s",
			name, inst.key, strings.Join(matches, ", "))
	}
}

// applyModification applies one Override/AddAlts/RemoveAlts production of
// inst to the production it targets in a `modify` dependency.
func (c *composer) applyModification(inst *instance, p *peg.Production) {
	mod := inst.mod
	// Locate the target production among modify-dependencies.
	var targets []string
	for _, d := range inst.deps {
		if !d.modify {
			continue
		}
		full := d.inst.key + "." + p.Name
		if _, ok := c.grammar.Prods[full]; ok {
			targets = append(targets, full)
		}
	}
	switch len(targets) {
	case 0:
		if !hasModifyDep(inst) {
			c.errs.Addf(mod.Source, p.Sp,
				"modification of %q requires a 'modify' dependency that defines it", p.Name)
		} else {
			c.errs.Addf(mod.Source, p.Sp,
				"no modified module defines production %q", p.Name)
		}
		return
	case 1:
		// ok
	default:
		sort.Strings(targets)
		c.errs.Addf(mod.Source, p.Sp, "modification of %q is ambiguous: %s",
			p.Name, strings.Join(targets, ", "))
		return
	}
	target := c.grammar.Prods[targets[0]]

	switch p.Kind {
	case peg.Override:
		body := peg.CloneExpr(p.Choice).(*peg.Choice)
		c.resolveExpr(inst, body, p.Sp)
		target.Choice = body
		if p.Attrs != 0 {
			target.Attrs = p.Attrs
		}
		c.checkLabels(mod, target)
	case peg.AddAlts:
		if p.Attrs != 0 {
			c.errs.Addf(mod.Source, p.Sp, "attributes are not allowed on '+=' modifications")
		}
		added := peg.CloneExpr(p.Choice).(*peg.Choice)
		c.resolveExpr(inst, added, p.Sp)
		idx := len(target.Choice.Alts)
		switch p.Anchor {
		case peg.Before, peg.After:
			at := target.Choice.AltIndex(p.AnchorLabel)
			if at < 0 {
				c.errs.Addf(mod.Source, p.Sp,
					"anchor alternative <%s> not found in %q", p.AnchorLabel, p.Name)
				return
			}
			if p.Anchor == peg.Before {
				idx = at
			} else {
				idx = at + 1
			}
		}
		alts := make([]*peg.Seq, 0, len(target.Choice.Alts)+len(added.Alts))
		alts = append(alts, target.Choice.Alts[:idx]...)
		alts = append(alts, added.Alts...)
		alts = append(alts, target.Choice.Alts[idx:]...)
		target.Choice.Alts = alts
		c.checkLabels(mod, target)
	case peg.RemoveAlts:
		if p.Attrs != 0 {
			c.errs.Addf(mod.Source, p.Sp, "attributes are not allowed on '-=' modifications")
		}
		for _, label := range p.Removed {
			at := target.Choice.AltIndex(label)
			if at < 0 {
				c.errs.Addf(mod.Source, p.Sp,
					"alternative <%s> not found in %q", label, p.Name)
				continue
			}
			target.Choice.Alts = append(target.Choice.Alts[:at], target.Choice.Alts[at+1:]...)
		}
		if len(target.Choice.Alts) == 0 {
			c.errs.Addf(mod.Source, p.Sp,
				"removal left production %q without alternatives", p.Name)
		}
	}
}

func hasModifyDep(inst *instance) bool {
	for _, d := range inst.deps {
		if d.modify {
			return true
		}
	}
	return false
}

// checkLabels verifies that alternative labels within a production are
// unique, since they serve as modification anchors.
func (c *composer) checkLabels(mod *peg.Module, p *peg.Production) {
	if p.Choice == nil {
		return
	}
	seen := map[string]bool{}
	for _, a := range p.Choice.Alts {
		if a.Label == "" {
			continue
		}
		if seen[a.Label] {
			c.errs.Addf(mod.Source, a.Span(), "duplicate alternative label <%s> in %q", a.Label, p.Name)
		}
		seen[a.Label] = true
	}
}

// resolveRoot determines the grammar's start production from the top
// module's `option root` or, failing that, its first public production.
func (c *composer) resolveRoot(top *instance) {
	if top == nil {
		return
	}
	if rootOpt, ok := top.mod.Options["root"]; ok {
		full, err := c.resolveName(top, rootOpt)
		if err != "" {
			c.errs.Addf(top.mod.Source, top.mod.Sp, "option root: %s", err)
			return
		}
		c.grammar.Root = full
		c.recordModules()
		return
	}
	for _, p := range top.mod.Prods {
		if p.Kind == peg.Define && p.Attrs.Has(peg.AttrPublic) {
			c.grammar.Root = top.key + "." + p.Name
			c.recordModules()
			return
		}
	}
	c.errs.Addf(top.mod.Source, top.mod.Sp,
		"module %q has no public production to serve as the grammar root (set 'option root')", top.key)
}

func (c *composer) recordModules() {
	for _, inst := range c.order {
		c.grammar.ModuleNames = append(c.grammar.ModuleNames, inst.key)
	}
}

// check performs closed-grammar sanity checks: every reference resolves and
// the root exists.
func (c *composer) check() {
	if c.grammar.Root != "" {
		if _, ok := c.grammar.Prods[c.grammar.Root]; !ok {
			c.errs.Addf(nil, text.NoSpan, "root production %q does not exist", c.grammar.Root)
		}
	}
	for _, name := range c.grammar.Order {
		p := c.grammar.Prods[name]
		peg.Walk(p.Choice, func(x peg.Expr) {
			if nt, ok := x.(*peg.NonTerm); ok {
				if _, defined := c.grammar.Prods[nt.Name]; !defined {
					c.errs.Addf(nil, text.NoSpan,
						"internal: unresolved reference %q in %q survived composition", nt.Name, name)
				}
			}
		})
	}
	c.errs.Sort()
}
