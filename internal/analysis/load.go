package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked target package: the unit a
// Pass inspects. Files holds only non-test sources — the analyzers
// police shipped behavior; tests may legitimately use wall clocks,
// unordered iteration, and exact float comparisons.
type Package struct {
	Path  string // import path, e.g. repro/internal/chip
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ModuleRoot locates the enclosing module: the nearest ancestor of dir
// carrying a go.mod, returning its directory and module path.
func ModuleRoot(dir string) (root, modulePath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
	}
}

// expand resolves go-tool-style patterns ("./...", "./internal/...",
// "./cmd/accordionvet") into package directories under root. Like the
// go tool, the ... wildcard never descends into testdata, hidden, or
// underscore-prefixed directories; the golden seeded-violation
// packages under internal/analysis/testdata stay invisible to a
// whole-tree run and are loaded explicitly by their tests.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		info, err := os.Stat(base)
		if err != nil || !info.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q does not name a directory under %s", pat, root)
		}
		if !rec {
			if hasGoFiles(base) {
				add(base)
			}
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// Load parses and type-checks every package matching patterns.
// Patterns are resolved relative to cfg.ModuleRoot. Repo packages are
// checked from source once each: a package a matched one imports is
// loaded on demand and then reused. The standard library comes from
// the gc export data the local go command provides (zero-dep: no
// x/tools, no network), so the go command must be on PATH at run time.
func Load(cfg *Config, patterns []string) ([]*Package, error) {
	dirs, err := expand(cfg.ModuleRoot, patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: patterns %v matched no packages", patterns)
	}
	fset := token.NewFileSet()
	l := &loader{cfg: cfg, fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*Package{}}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// loader is the one importer of a Load: it type-checks each repo
// package once and hands the standard library to the gc importer.
type loader struct {
	cfg  *Config
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // checked repo packages by directory
}

// Import returns a repo package from source, checking it on first use,
// and anything else from export data.
func (l *loader) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, l.cfg.ModulePath+"/")
	if !ok {
		return l.std.Import(path)
	}
	pkg, err := l.load(filepath.Join(l.cfg.ModuleRoot, filepath.FromSlash(rel)))
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load returns dir's package, checking it on first use.
func (l *loader) load(dir string) (*Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	pkg, err := loadDir(l.cfg, l.fset, l, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}

// loadDir parses dir's non-test files and type-checks them as the
// package named by its module-relative path.
func loadDir(cfg *Config, fset *token.FileSet, imp types.Importer, dir string) (*Package, error) {
	rel, err := filepath.Rel(cfg.ModuleRoot, dir)
	if err != nil {
		return nil, err
	}
	path := cfg.ModulePath
	if rel != "." {
		path += "/" + filepath.ToSlash(rel)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, typeErrs[0])
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
