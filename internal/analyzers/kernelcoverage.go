package analyzers

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"stethoscope/internal/analyzers/lintkit"
)

// KernelCoverage is the cross-package opcode contract: the set of
// module.function opcodes the plan builders (internal/compiler,
// internal/optimizer) can emit must be a subset of the kernels the
// engine installs in registerKernels, and every registered kernel must
// be reachable from some emit site. What used to surface at runtime as
// "unknown kernel" on a rare query shape is a lint error here; a kernel
// nobody can emit is dead weight flagged at its Register call.
//
// Both sets are computed by a small abstract interpreter over the
// packages' actual idioms: string literals, "prefix"+x concatenation,
// indexing into map[...]string literals, range over map-literal keys,
// and `x = tag` assignments inside a `switch tag` case with literal
// labels. An opcode expression the resolver cannot bound is itself a
// finding — emit sites must stay statically analyzable.
var KernelCoverage = &lintkit.Analyzer{
	Name:      "kernelcoverage",
	Doc:       "every emitted mal opcode has a registered kernel; every registered kernel is reachable",
	RunModule: runKernelCoverage,
}

// Package roles, matched on the final import-path segment.
var (
	kernelEmitPackages     = []string{"compiler", "optimizer"}
	kernelRegisterPackages = []string{"engine"}
)

// opcodeUse is one resolved (module, function) use or registration.
type opcodeUse struct {
	mod, fn string
	pos     token.Pos
}

func runKernelCoverage(pass *lintkit.ModulePass) error {
	var registered, emitted []opcodeUse
	sawRegister, sawEmit := false, false

	for _, pkg := range pass.Pkgs {
		switch {
		case pkgMatches(pkg, kernelRegisterPackages...):
			sawRegister = true
			collectOpcodeCalls(pass, pkg, "Register", &registered)
		case pkgMatches(pkg, kernelEmitPackages...):
			sawEmit = true
			collectOpcodeCalls(pass, pkg, "Emit", &emitted)
			collectOpcodeCalls(pass, pkg, "OpOf", &emitted)
		}
	}
	// A partial load (linting one package) cannot check the contract.
	if !sawRegister || !sawEmit {
		return nil
	}

	regSet := map[string]token.Pos{}
	for _, r := range registered {
		regSet[r.mod+"."+r.fn] = r.pos
	}
	used := map[string]bool{}
	for _, e := range emitted {
		name := e.mod + "." + e.fn
		used[name] = true
		if _, ok := regSet[name]; !ok {
			pass.Reportf(e.pos, "mal opcode %s is emitted here but registerKernels installs no such kernel", name)
		}
	}
	var dead []string
	for name := range regSet {
		if !used[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		pass.Reportf(regSet[name], "kernel %s is registered but neither compiler nor optimizer can emit it (dead kernel; delete it or suppress with the reason it stays)", name)
	}
	return nil
}

// collectOpcodeCalls gathers (module, function) pairs from method calls
// whose name is methodPrefix ("Register", the "Emit" family — Emit,
// Emit0, Emit1, EmitN — or "OpOf", which an in-place opcode rewrite
// calls) and whose first two arguments are the opcode.
func collectOpcodeCalls(pass *lintkit.ModulePass, pkg *lintkit.Package, methodPrefix string, out *[]opcodeUse) {
	globals := packageStringMaps(pkg)
	for _, fd := range funcDecls(pkg) {
		res := &strResolver{fn: fd, globals: globals}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name := calleeName(call)
			if recv == "" || !strings.HasPrefix(name, methodPrefix) || len(call.Args) < 2 {
				return true
			}
			if rest := strings.TrimPrefix(name, methodPrefix); rest != "" && !isDigits(rest) {
				return true // EmitBatch etc. — not the opcode family
			}
			mods, ok1 := res.resolve(call.Args[0])
			fns, ok2 := res.resolve(call.Args[1])
			if !ok1 || !ok2 {
				pass.Reportf(call.Pos(), "cannot statically resolve the mal opcode of this %s call; use literals, map[...]string literals, or prefix+rangekey so kernelcoverage can check it", name)
				return true
			}
			for _, m := range mods {
				for _, f := range fns {
					*out = append(*out, opcodeUse{mod: m, fn: f, pos: call.Pos()})
				}
			}
			return true
		})
	}
}

func isDigits(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

// packageStringMaps indexes package-level `var m = map[...]string{...}`
// declarations by name — the compiler's cmpFunc/arithFunc/aggrFunc
// tables.
func packageStringMaps(pkg *lintkit.Package) map[string]*ast.CompositeLit {
	maps := map[string]*ast.CompositeLit{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					if cl, ok := vs.Values[i].(*ast.CompositeLit); ok && isMapLit(cl) {
						maps[name.Name] = cl
					}
				}
			}
		}
	}
	return maps
}

func isMapLit(cl *ast.CompositeLit) bool {
	_, ok := cl.Type.(*ast.MapType)
	return ok
}

// strResolver bounds the possible string values of an expression inside
// one function, against the function's assignments and the package's
// string-map tables.
type strResolver struct {
	fn      *ast.FuncDecl
	globals map[string]*ast.CompositeLit
	depth   int
}

const maxResolveDepth = 8

// resolve returns the complete set of values expr can take, or ok=false
// when the expression is not statically bounded.
func (r *strResolver) resolve(expr ast.Expr) ([]string, bool) {
	if r.depth > maxResolveDepth {
		return nil, false
	}
	r.depth++
	defer func() { r.depth-- }()

	switch t := expr.(type) {
	case *ast.BasicLit:
		s, ok := strLit(t)
		if !ok {
			return nil, false
		}
		return []string{s}, true
	case *ast.ParenExpr:
		return r.resolve(t.X)
	case *ast.BinaryExpr:
		if t.Op != token.ADD {
			return nil, false
		}
		ls, ok := r.resolve(t.X)
		if !ok {
			return nil, false
		}
		rs, ok := r.resolve(t.Y)
		if !ok {
			return nil, false
		}
		var out []string
		for _, a := range ls {
			for _, b := range rs {
				out = append(out, a+b)
			}
		}
		return out, true
	case *ast.IndexExpr:
		// m[k] over a map[...]string literal: all values.
		if cl := r.mapLit(t.X); cl != nil {
			return mapLitValues(cl)
		}
		return nil, false
	case *ast.Ident:
		return r.resolveIdent(t)
	}
	return nil, false
}

// bindingReaches reports whether a binding found in the function body
// can flow into a use of the variable at usePos. Range keys and := are
// scoped: a `for k := range m` key only exists inside that statement,
// and a := definition only reaches uses after it. Plain = mutates an
// outer variable and is taken conservatively from anywhere.
func bindingReaches(binding ast.Node, tok token.Token, usePos token.Pos) bool {
	switch tok {
	case token.RANGE:
		return binding.Pos() <= usePos && usePos <= binding.End()
	case token.DEFINE:
		return binding.Pos() <= usePos
	default:
		return true
	}
}

// mapLit resolves an expression to a map composite literal: inline, a
// package-level table, or a local `m := map[...]...{...}`.
func (r *strResolver) mapLit(e ast.Expr) *ast.CompositeLit {
	switch t := e.(type) {
	case *ast.CompositeLit:
		if isMapLit(t) {
			return t
		}
	case *ast.Ident:
		if cl, ok := r.globals[t.Name]; ok {
			return cl
		}
		var found *ast.CompositeLit
		ast.Inspect(r.fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name == t.Name {
				if cl, ok := as.Rhs[0].(*ast.CompositeLit); ok && isMapLit(cl) {
					found = cl
				}
			}
			return true
		})
		return found
	}
	return nil
}

func mapLitValues(cl *ast.CompositeLit) ([]string, bool) {
	var out []string
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return nil, false
		}
		s, ok := strLit(kv.Value)
		if !ok {
			return nil, false
		}
		out = append(out, s)
	}
	return out, true
}

func mapLitKeys(cl *ast.CompositeLit) ([]string, bool) {
	var out []string
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return nil, false
		}
		s, ok := strLit(kv.Key)
		if !ok {
			return nil, false
		}
		out = append(out, s)
	}
	return out, true
}

// resolveIdent bounds a variable: the union of every value it can hold
// at the use site — range-over-map keys (scoped to their loop), :=
// definitions reaching the use, plain = assignments anywhere, and
// `x = tag` inside `switch tag { case "a", "b": }`.
func (r *strResolver) resolveIdent(id *ast.Ident) ([]string, bool) {
	var out []string
	bounded := true
	sawBinding := false

	ast.Inspect(r.fn.Body, func(n ast.Node) bool {
		if !bounded {
			return false
		}
		switch t := n.(type) {
		case *ast.RangeStmt:
			key, ok := t.Key.(*ast.Ident)
			if !ok || key.Name != id.Name || !bindingReaches(t, token.RANGE, id.Pos()) {
				return true
			}
			sawBinding = true
			cl := r.mapLit(t.X)
			if cl == nil {
				bounded = false
				return false
			}
			keys, ok := mapLitKeys(cl)
			if !ok {
				bounded = false
				return false
			}
			out = append(out, keys...)
		case *ast.AssignStmt:
			for i, lhs := range t.Lhs {
				l, ok := lhs.(*ast.Ident)
				if !ok || l.Name != id.Name || i >= len(t.Rhs) {
					continue
				}
				if !bindingReaches(t, t.Tok, id.Pos()) {
					continue
				}
				sawBinding = true
				rhs := t.Rhs[i]
				if vals, ok := r.resolve(rhs); ok {
					out = append(out, vals...)
					continue
				}
				if vals, ok := r.switchCaseValues(t, rhs); ok {
					out = append(out, vals...)
					continue
				}
				bounded = false
			}
		}
		return true
	})
	if !bounded || !sawBinding {
		return nil, false
	}
	return out, true
}

// switchCaseValues handles `x = tag` inside a case of `switch tag`: the
// value set is the case's literal labels.
func (r *strResolver) switchCaseValues(assign *ast.AssignStmt, rhs ast.Expr) ([]string, bool) {
	rhsStr := exprString(rhs)
	if rhsStr == "" {
		return nil, false
	}
	var out []string
	found := false
	ast.Inspect(r.fn.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil || exprString(sw.Tag) != rhsStr {
			return true
		}
		for _, c := range sw.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			if !containsNode(cc, assign) {
				continue
			}
			for _, label := range cc.List {
				s, ok := strLit(label)
				if !ok {
					return true
				}
				out = append(out, s)
			}
			found = true
		}
		return true
	})
	return out, found
}

// containsNode reports whether outer's source range encloses inner.
func containsNode(outer, inner ast.Node) bool {
	return outer.Pos() <= inner.Pos() && inner.End() <= outer.End()
}
