package analyzers

import (
	"go/ast"
	"strings"

	"stethoscope/internal/analyzers/lintkit"
)

// DeadExport flags exported surface that only tests use: every
// exported package-level func, type, var or const of an internal/
// package that no non-test file of the module references, and every
// exported method of an internal package's type whose name no non-test
// file selects (x.Name) and no interface type of the module declares.
// A name that only tests read is product code kept alive for its
// tests; delete it, or suppress the finding with the reason it stays (a
// caller outside the module, a shared test fixture).
//
// A declaration's references to itself do not count, and neither do a
// type's own methods, receiver and body alike. References are resolved
// syntactically: a bare identifier in the declaring package, or
// pkg.Name through an import of it. Methods are matched by name alone,
// whatever the receiver, since which type x has needs type checking.
// The reference set is always the whole module the package belongs to,
// re-read from disk, so linting one package gives the same answer as
// linting ./... and its suppressions stay in use.
var DeadExport = &lintkit.Analyzer{
	Name:      "deadexport",
	Doc:       "every exported name of an internal package has a non-test caller in the module",
	RunModule: runDeadExport,
}

// exportRef names one package-level identifier: the import path of the
// declaring package and the name.
type exportRef struct{ path, name string }

func runDeadExport(pass *lintkit.ModulePass) error {
	var internal []*lintkit.Package
	for _, pkg := range pass.Pkgs {
		if isInternal(pkg.Path) {
			internal = append(internal, pkg)
		}
	}
	if len(internal) == 0 {
		return nil
	}
	root, err := lintkit.ModuleRoot(internal[0].Dir)
	if err != nil {
		return err
	}
	_, module, err := lintkit.Load(root, "./...")
	if err != nil {
		return err
	}
	used, methods := references(module), methodNames(module)
	for _, pkg := range internal {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) > 0 {
					if fd.Name.IsExported() && !methods[fd.Name.Name] {
						pass.Reportf(fd.Name.Pos(), "exported method %s.%s.%s has no selection outside tests; delete it or suppress with the reason it stays",
							pkg.Name, receiverType(fd.Recv.List[0].Type), fd.Name.Name)
					}
					continue
				}
				for _, u := range declUnits(d) {
					for _, id := range declaredNames(u) {
						if id.IsExported() && !used[exportRef{pkg.Path, id.Name}] {
							pass.Reportf(id.Pos(), "exported %s.%s has no reference outside tests; delete it or suppress with the reason it stays", pkg.Name, id.Name)
						}
					}
				}
			}
		}
	}
	return nil
}

func isInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}

// declUnits splits a top-level declaration into the nodes that each
// declare their own names: a func or method, or each spec of a general
// declaration.
func declUnits(d ast.Decl) []ast.Node {
	g, ok := d.(*ast.GenDecl)
	if !ok {
		return []ast.Node{d}
	}
	units := make([]ast.Node, len(g.Specs))
	for i, s := range g.Specs {
		units[i] = s
	}
	return units
}

// declaredNames returns the package-level names a unit declares: a
// func's (a method declares none), a type's, a value spec's.
func declaredNames(u ast.Node) []*ast.Ident {
	switch u := u.(type) {
	case *ast.FuncDecl:
		if u.Recv == nil {
			return []*ast.Ident{u.Name}
		}
	case *ast.TypeSpec:
		return []*ast.Ident{u.Name}
	case *ast.ValueSpec:
		return u.Names
	}
	return nil
}

// references collects every package-level name the packages' files
// refer to. A unit's references to what it declares do not count, and
// a method counts as declaring its receiver type.
func references(pkgs []*lintkit.Package) map[exportRef]bool {
	names := map[string]string{} // import path -> package name
	for _, pkg := range pkgs {
		names[pkg.Path] = pkg.Name
	}
	used := map[exportRef]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			imports := map[string]string{} // local name -> import path
			var dotImports []string
			for _, imp := range f.Imports {
				path, _ := strLit(imp.Path)
				local := names[path]
				if local == "" {
					local = path[strings.LastIndexByte(path, '/')+1:]
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				if local == "." {
					dotImports = append(dotImports, path)
				} else {
					imports[local] = path
				}
			}
			for _, d := range f.Decls {
				for _, u := range declUnits(d) {
					self := map[string]bool{}
					for _, id := range declaredNames(u) {
						self[id.Name] = true
					}
					if fd, ok := u.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) > 0 {
						self[receiverType(fd.Recv.List[0].Type)] = true
					}
					skip := map[*ast.Ident]bool{} // field, method and local names
					ast.Inspect(u, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.SelectorExpr:
							skip[n.Sel] = true
							if x, ok := n.X.(*ast.Ident); ok {
								if path, ok := imports[x.Name]; ok {
									used[exportRef{path, n.Sel.Name}] = true
								}
							}
						case *ast.FuncDecl:
							skip[n.Name] = true
						case *ast.TypeSpec:
							skip[n.Name] = true
						case *ast.ValueSpec:
							for _, id := range n.Names {
								skip[id] = true
							}
						case *ast.Field:
							for _, id := range n.Names {
								skip[id] = true
							}
						case *ast.Ident:
							if skip[n] || self[n.Name] {
								break
							}
							used[exportRef{pkg.Path, n.Name}] = true
							for _, path := range dotImports {
								used[exportRef{path, n.Name}] = true
							}
						}
						return true
					})
				}
			}
		}
	}
	return used
}

// methodNames collects every name the packages' files select (x.Name)
// or declare as an interface method: the names a method can be reached
// by.
func methodNames(pkgs []*lintkit.Package) map[string]bool {
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					names[n.Sel.Name] = true
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							names[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	return names
}

// receiverType strips a method receiver's pointer and type parameters
// down to the named type.
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.IndexExpr:
		return receiverType(t.X)
	case *ast.IndexListExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}
