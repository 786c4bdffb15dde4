package analysis

// Unitchecker mode: run the analyzer suite on a single compilation
// unit described by a JSON config file, the protocol `go vet -vettool`
// speaks. cmd/go typechecks nothing itself — it hands the tool a .cfg
// naming the unit's Go files plus export-data files for every
// dependency, and expects diagnostics on stderr (file:line:col:
// message) with a nonzero exit when any are found. The analyzers use
// no cross-package facts, so the unit's "vetx" fact file (VetxOutput)
// is written empty, and a VetxOnly unit — a dependency cmd/go visits
// for facts alone — is not analyzed.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// VetConfig is the subset of cmd/go's vet config this driver reads.
type VetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnitchecker analyzes the unit described by cfgFile and returns a
// process exit code (0 clean, 1 internal error, 2 findings).
func RunUnitchecker(analyzers []*Analyzer, cfgFile string) int {
	findings, err := runUnit(analyzers, cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "manetlint: %v\n", err)
		return 1
	}
	if len(findings) == 0 {
		return 0
	}
	SortFindings(findings)
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f.String())
	}
	return 2
}

func runUnit(analyzers []*Analyzer, cfgFile string) ([]Finding, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return nil, err
	}
	var cfg VetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	// cmd/go hands test variants ("pkg [pkg.test]", "pkg_test") to the
	// vettool as ordinary units with _test.go files mixed in. The native
	// driver keeps test files out of Pass.Files (analyzers exempt test
	// code), so split by suffix here; type-checking still sees the whole
	// unit.
	fset := token.NewFileSet()
	var files, nonTest, testFiles []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			nonTest = append(nonTest, f)
		}
	}
	if len(files) == 0 {
		return nil, nil
	}

	compilerImporter := importer.ForCompiler(fset, gcCompiler(cfg.Compiler), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tc := &types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	var typeErrs []types.Error
	tc.Error = func(err error) {
		if te, ok := err.(types.Error); ok {
			typeErrs = append(typeErrs, te)
		}
	}
	pkg, _ := tc.Check(cfg.ImportPath, fset, files, info)
	if len(typeErrs) > 0 && cfg.SucceedOnTypecheckFailure {
		return nil, nil
	}

	seq := Sequence(analyzers)
	var findings []Finding
	results := map[*Analyzer]any{}
	ignores := CollectIgnores(fset, cfg.Dir, files)
	matched := make([]map[string]bool, len(ignores))
	for i := range matched {
		matched[i] = map[string]bool{}
	}
	active := map[string]bool{"typecheck": true}
	for _, a := range seq {
		active[a.Name] = true
	}
	report := func(a *Analyzer, d Diagnostic) {
		pos := fset.Position(d.Pos)
		f := Finding{
			File: relUnitFile(cfg.Dir, pos.Filename), Line: pos.Line, Col: pos.Column,
			Rule: a.Name, Message: d.Message, strict: d.Category == CategoryStrict,
		}
		if !f.strict {
			for i, dir := range ignores {
				if dir.File != f.File || (dir.Line != f.Line && dir.Line != f.Line-1) {
					continue
				}
				for _, rule := range dir.Rules {
					if rule == f.Rule {
						matched[i][rule] = true
						return
					}
				}
			}
		}
		findings = append(findings, f)
	}

	for _, a := range seq {
		if len(typeErrs) > 0 && !a.RunDespiteErrors {
			continue
		}
		pass := &Pass{
			Analyzer: a, Fset: fset, Files: nonTest, TestFiles: testFiles,
			PkgPath: cfg.ImportPath, Pkg: pkg, TypesInfo: info, TypeErrors: typeErrs,
			ResultOf: map[*Analyzer]any{},
		}
		for _, req := range a.Requires {
			pass.ResultOf[req] = results[req]
		}
		ana := a
		pass.Report = func(d Diagnostic) { report(ana, d) }
		res, err := a.Run(pass)
		if err != nil {
			findings = append(findings, Finding{
				File: cfg.ImportPath, Line: 1, Col: 1, Rule: a.Name,
				Message: fmt.Sprintf("analyzer failed: %v", err), strict: true,
			})
			continue
		}
		results[a] = res
	}

	for i, dir := range ignores {
		for _, rule := range dir.Rules {
			if active[rule] && !matched[i][rule] {
				findings = append(findings, Finding{
					File: dir.File, Line: dir.Line, Col: dir.Col, Rule: "ignorecheck",
					Message: fmt.Sprintf("stale //lint:ignore %s: no %s finding on this or the next line; remove the directive", rule, rule),
					strict:  true,
				})
			}
		}
	}

	return findings, nil
}

func gcCompiler(c string) string {
	if c == "" {
		return "gc"
	}
	return c
}

func relUnitFile(dir, name string) string {
	if dir != "" && strings.HasPrefix(name, dir+string(os.PathSeparator)) {
		return strings.ReplaceAll(name[len(dir)+1:], string(os.PathSeparator), "/")
	}
	return name
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
