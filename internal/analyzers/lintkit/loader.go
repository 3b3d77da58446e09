package lintkit

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load parses the packages of the module rooted at root that match the
// go-style patterns ("./..." for the whole module, "./internal/engine"
// for one package, "./internal/..." for a subtree). Only non-test
// sources are loaded — the invariants stethovet enforces are production
// contracts, and test files register fixture kernels that would skew
// the cross-package sets. Comments are kept (the suppression syntax
// lives in them).
func Load(root string, patterns ...string) (*token.FileSet, []*Package, error) {
	modPath, err := modulePath(root)
	if err != nil {
		return nil, nil, err
	}
	dirs := map[string]bool{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		switch {
		case pat == "..." || pat == ".":
			if err := walkGoDirs(root, dirs); err != nil {
				return nil, nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			if err := walkGoDirs(filepath.Join(root, strings.TrimSuffix(pat, "/...")), dirs); err != nil {
				return nil, nil, err
			}
		default:
			dirs[filepath.Join(root, pat)] = true
		}
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := parseDir(fset, dir, importPath(modPath, root, dir))
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return fset, pkgs, nil
}

// LoadTree loads every package under root with import paths rooted at
// base — the fixture loader linttest uses (base names the fixture, so
// package-matching analyzers see predictable path segments).
func LoadTree(root, base string) (*token.FileSet, []*Package, error) {
	dirs := map[string]bool{}
	if err := walkGoDirs(root, dirs); err != nil {
		return nil, nil, err
	}
	var sorted []string
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)
	fset := token.NewFileSet()
	var pkgs []*Package
	for _, dir := range sorted {
		pkg, err := parseDir(fset, dir, importPath(base, root, dir))
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return fset, pkgs, nil
}

// ModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("lintkit: %w", err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lintkit: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path out of root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lintkit: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lintkit: no module line in %s", filepath.Join(root, "go.mod"))
}

// importPath maps a directory to its import path under base.
func importPath(base, root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return base
	}
	return base + "/" + filepath.ToSlash(rel)
}

// walkGoDirs collects every directory under root that holds .go files,
// skipping testdata, vendor, hidden directories, and nested modules
// (a directory below root with a go.mod of its own, such as bench/).
func walkGoDirs(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
}

// parseDir parses the non-test .go files of dir into one Package (nil
// when the directory holds only test files).
func parseDir(fset *token.FileSet, dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lintkit: %w", err)
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lintkit: %w", err)
		}
		pkg.Name = f.Name.Name
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}
