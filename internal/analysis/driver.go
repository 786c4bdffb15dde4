package analysis

import (
	"fmt"
	"go/ast"
	"go/scanner"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position, the driver's
// rendered form of a Diagnostic. File paths are module-root-relative
// and slash-separated.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`

	strict bool // not waivable by //lint:ignore
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// SortFindings orders findings by file, line, column, then rule.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// Driver applies a suite of analyzers to module packages: it loads and
// type-checks the requested packages, runs the analyzers on each, and
// applies the repository's //lint:ignore suppression layer (per-rule
// scope, strict findings unwaivable, stale directives reported).
type Driver struct {
	Analyzers []*Analyzer
}

// Run analyzes the packages matched by patterns in the module rooted
// at root; directory patterns resolve relative to base. Findings are
// reported for the matched packages only and returned sorted. A
// non-nil error means the module itself could not be loaded; per-file
// parse and type problems become "typecheck" findings instead.
func (d *Driver) Run(root, base string, patterns []string) ([]Finding, error) {
	m, err := NewModule(root)
	if err != nil {
		return nil, err
	}
	paths, err := m.Expand(base, patterns)
	if err != nil {
		return nil, err
	}

	var all []Finding
	for _, p := range paths {
		pkg, err := m.Load(p)
		if err != nil {
			return nil, err
		}
		all = append(all, d.runPackage(m, pkg)...)
	}
	SortFindings(all)
	return all, nil
}

// runPackage runs every analyzer over one package and applies the
// suppression layer to its diagnostics.
func (d *Driver) runPackage(m *Module, pkg *Package) []Finding {
	var raw []Finding

	for _, err := range pkg.ParseErrs {
		if list, ok := err.(scanner.ErrorList); ok {
			for _, e := range list {
				raw = append(raw, Finding{
					File: m.relFile(e.Pos.Filename), Line: e.Pos.Line, Col: e.Pos.Column,
					Rule: "typecheck", Message: e.Msg,
				})
			}
			continue
		}
		raw = append(raw, Finding{
			File: pkg.RelPathOrDot(), Line: 1, Col: 1, Rule: "typecheck", Message: err.Error(),
		})
	}
	for _, te := range pkg.TypeErrors {
		pos := m.fset.Position(te.Pos)
		raw = append(raw, Finding{
			File: m.relFile(pos.Filename), Line: pos.Line, Col: pos.Column,
			Rule: "typecheck", Message: te.Msg,
		})
	}

	for _, a := range d.Analyzers {
		rule := a.Name
		pass := &Pass{
			Fset:      m.fset,
			Files:     pkg.Files,
			TestFiles: pkg.TestFiles,
			PkgPath:   pkg.ImportPath,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(diag Diagnostic) {
				pos := m.fset.Position(diag.Pos)
				raw = append(raw, Finding{
					File: m.relFile(pos.Filename), Line: pos.Line, Col: pos.Column,
					Rule: rule, Message: diag.Message,
					strict: diag.Category == CategoryStrict,
				})
			},
		}
		if _, err := a.Run(pass); err != nil {
			raw = append(raw, Finding{
				File: pkg.RelPathOrDot(), Line: 1, Col: 1, Rule: rule,
				Message: fmt.Sprintf("analyzer failed: %v", err), strict: true,
			})
		}
	}

	active := map[string]bool{"typecheck": true}
	for _, a := range d.Analyzers {
		active[a.Name] = true
	}
	allFiles := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
	directives := CollectIgnores(m.fset, m.Root, allFiles)
	matched := make([]map[string]bool, len(directives))
	for i := range matched {
		matched[i] = map[string]bool{}
	}

	var out []Finding
	for _, f := range raw {
		suppressed := false
		if !f.strict {
			for i, dir := range directives {
				if dir.File != f.File {
					continue
				}
				if dir.Line != f.Line && dir.Line != f.Line-1 {
					continue
				}
				for _, rule := range dir.Rules {
					if rule == f.Rule {
						matched[i][rule] = true
						suppressed = true
					}
				}
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}

	// A directive that waived nothing is debt that can only grow stale:
	// report it so the annotation inventory only ever shrinks. Rules
	// outside the active analyzer set are left alone (a partial run
	// must not condemn another analyzer's annotations).
	for i, dir := range directives {
		for _, rule := range dir.Rules {
			if active[rule] && !matched[i][rule] {
				out = append(out, Finding{
					File: dir.File, Line: dir.Line, Col: dir.Col,
					Rule: "ignorecheck",
					Message: fmt.Sprintf(
						"stale //lint:ignore %s: no %s finding on this or the next line; remove the directive", rule, rule),
					strict: true,
				})
			}
		}
	}
	return out
}

// RelPathOrDot names the package directory for findings without a
// position ("." for the module root).
func (p *Package) RelPathOrDot() string {
	if p.RelPath == "" {
		return "."
	}
	return p.RelPath
}

// ------------------------------------------------------------- ignores

// IgnorePrefix starts a suppression directive. The syntax is
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// covering findings of the listed rules on the directive's line and
// the line below. The reason is mandatory; the rule list must name
// specific rules — a bare directive (or the old catch-all "all") no
// longer waives anything and is itself reported by ignorecheck.
const IgnorePrefix = "//lint:ignore"

// IgnoreDirective is one parsed, well-formed suppression directive.
type IgnoreDirective struct {
	File  string // module-root-relative
	Line  int
	Col   int
	Rules []string
	Pos   token.Pos
}

// ParseIgnoreComment splits a //lint:ignore comment into its rule list
// and reason. ok is false when the comment is not an ignore directive
// at all; a directive with a missing rule list or reason returns
// ok true with empty fields so the caller can report it malformed.
func ParseIgnoreComment(text string) (rules []string, reason string, ok bool) {
	rest, found := strings.CutPrefix(text, IgnorePrefix)
	if !found {
		return nil, "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil, "", true
	}
	return strings.Split(fields[0], ","), strings.Join(fields[1:], " "), true
}

// CollectIgnores scans every comment in files for well-formed ignore
// directives. File paths in the result are relative to root (slash
// form). Malformed directives are skipped here — reporting them is the
// ignorecheck analyzer's job.
func CollectIgnores(fset *token.FileSet, root string, files []*ast.File) []IgnoreDirective {
	var out []IgnoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				rules, reason, ok := ParseIgnoreComment(cm.Text)
				if !ok || len(rules) == 0 || reason == "" {
					continue
				}
				pos := fset.Position(cm.Pos())
				file := pos.Filename
				if rel, err := filepath.Rel(root, file); err == nil {
					file = filepath.ToSlash(rel)
				}
				out = append(out, IgnoreDirective{
					File: file, Line: pos.Line, Col: pos.Column,
					Rules: rules, Pos: cm.Pos(),
				})
			}
		}
	}
	return out
}
