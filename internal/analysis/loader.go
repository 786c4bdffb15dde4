package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module loads and type-checks the packages of a single Go module from
// source. Imports inside the module are resolved against the module
// tree itself; everything else (the standard library) is delegated to
// the compiler's source importer, so the loader needs no export data
// and no dependencies outside the standard library. It is the offline
// stand-in for golang.org/x/tools/go/packages: the driver feeds its
// output into Pass values exactly as the real framework would.
type Module struct {
	Root string // absolute module root directory (the one holding go.mod)
	Path string // module path declared in go.mod

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string // full import path, e.g. repro/internal/cluster
	RelPath    string // path relative to the module root ("" for the root package)
	Dir        string
	Name       string

	Files     []*ast.File // non-test files, parsed with comments
	TestFiles []*ast.File // _test.go files (parsed, not type-checked)

	Types      *types.Package
	Info       *types.Info
	TypeErrors []types.Error // collected type-checker diagnostics
	ParseErrs  []error       // scanner/parser diagnostics
}

// NewModule opens the module rooted at dir (which must contain go.mod).
func NewModule(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Module{
		Root:    root,
		Path:    modPath,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			p = strings.Trim(p, `"`)
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// FileSet exposes the position table shared by every loaded package.
func (m *Module) FileSet() *token.FileSet { return m.fset }

// Import implements types.Importer so the type-checker can resolve the
// imports of any package we feed it.
func (m *Module) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == m.Path || strings.HasPrefix(path, m.Path+"/") {
		pkg, err := m.Load(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: type information for %s unavailable", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// Load parses and type-checks the package with the given module-local
// import path, memoizing the result. Parse and type errors do not make
// Load fail: they are collected on the returned Package so callers can
// report them as findings.
func (m *Module) Load(path string) (*Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	if m.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	m.loading[path] = true
	defer delete(m.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
	dir := filepath.Join(m.Root, filepath.FromSlash(rel))
	pkg := &Package{ImportPath: path, RelPath: rel, Dir: dir}

	goFiles, testGoFiles, err := listGoFiles(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	if len(goFiles) == 0 && len(testGoFiles) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	for _, name := range goFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if f != nil {
			pkg.Files = append(pkg.Files, f)
			if pkg.Name == "" {
				pkg.Name = f.Name.Name
			}
		}
		if err != nil {
			pkg.ParseErrs = append(pkg.ParseErrs, err)
		}
	}
	for _, name := range testGoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if f != nil {
			pkg.TestFiles = append(pkg.TestFiles, f)
		}
		if err != nil {
			pkg.ParseErrs = append(pkg.ParseErrs, err)
		}
	}

	if len(pkg.Files) > 0 {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Implicits:  map[ast.Node]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
		conf := types.Config{
			Importer: m,
			Error: func(err error) {
				if te, ok := err.(types.Error); ok {
					pkg.TypeErrors = append(pkg.TypeErrors, te)
				}
			},
		}
		// Check returns an error on any diagnostic; partial type
		// information is still recorded in info, which is all the
		// analyzers need. The diagnostics themselves become findings.
		tpkg, _ := conf.Check(path, m.fset, pkg.Files, info)
		pkg.Types = tpkg
		pkg.Info = info
	}

	m.pkgs[path] = pkg
	return pkg, nil
}

// listGoFiles returns the buildable non-test and test Go file names in
// dir, honoring build constraints for the current platform.
func listGoFiles(dir string) (goFiles, testGoFiles []string, err error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); !ok {
			return nil, nil, err
		}
	}
	if bp == nil {
		return nil, nil, nil
	}
	goFiles = append(goFiles, bp.GoFiles...)
	testGoFiles = append(testGoFiles, bp.TestGoFiles...)
	testGoFiles = append(testGoFiles, bp.XTestGoFiles...)
	sort.Strings(goFiles)
	sort.Strings(testGoFiles)
	return goFiles, testGoFiles, nil
}

// Expand resolves package patterns to module-local import paths.
// Supported forms: "./..." (whole module), "dir/..." (subtree), a
// directory path, or a full import path inside the module. Directory
// patterns are interpreted relative to base (typically the caller's
// working directory).
func (m *Module) Expand(base string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "all":
			pat = "./..."
			fallthrough
		case strings.HasSuffix(pat, "..."):
			dir := strings.TrimSuffix(pat, "...")
			dir = strings.TrimSuffix(dir, "/")
			if dir == "" || dir == "." {
				dir = base
			} else if !filepath.IsAbs(dir) {
				dir = filepath.Join(base, dir)
			}
			paths, err := m.walk(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case pat == m.Path || strings.HasPrefix(pat, m.Path+"/"):
			add(pat)
		default:
			dir := pat
			if !filepath.IsAbs(dir) {
				dir = filepath.Join(base, dir)
			}
			p, err := m.dirImportPath(dir)
			if err != nil {
				return nil, err
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *Module) dirImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(m.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, m.Path)
	}
	if rel == "." {
		return m.Path, nil
	}
	return m.Path + "/" + filepath.ToSlash(rel), nil
}

// walk finds every directory under dir containing at least one .go
// file, skipping testdata, vendor, and hidden directories.
func (m *Module) walk(dir string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		p, err := m.dirImportPath(filepath.Dir(path))
		if err != nil {
			return err
		}
		if len(out) == 0 || out[len(out)-1] != p {
			out = append(out, p)
		}
		return nil
	})
	return out, err
}

func (m *Module) relFile(filename string) string {
	if rel, err := filepath.Rel(m.Root, filename); err == nil {
		return filepath.ToSlash(rel)
	}
	return filename
}
