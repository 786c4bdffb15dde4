// Package ignorecheck defines an Analyzer that polices the
// //lint:ignore directives themselves, so annotation debt can only
// shrink:
//
//   - a malformed directive (missing rule list or reason) is reported;
//   - a bare or catch-all directive ("all" / "*") that would silence
//     every rule is reported — ignores must be scoped per rule;
//   - a directive naming an unknown rule is reported.
//
// The fourth check — a well-formed directive that suppresses no
// current finding is stale — needs visibility across every analyzer's
// output, so it lives in the analysis driver; its findings carry this
// analyzer's name and are strict (an ignore cannot ignore its own
// staleness).
package ignorecheck

import (
	"go/ast"

	"repro/internal/analysis"
)

// KnownRules are the rule names a directive may reference. The suite
// (internal/lint) sets this to the full analyzer catalog; "typecheck"
// is always valid.
var KnownRules = []string{"typecheck"}

var Analyzer = &analysis.Analyzer{
	Name: "ignorecheck",
	Doc:  "flag malformed, catch-all, unknown-rule, and (via the driver) stale //lint:ignore directives",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	known := map[string]bool{"typecheck": true}
	for _, r := range KnownRules {
		known[r] = true
	}
	check := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				rules, reason, ok := analysis.ParseIgnoreComment(cm.Text)
				if !ok {
					continue
				}
				if len(rules) == 0 || reason == "" {
					pass.ReportStrictf(cm.Pos(),
						"malformed ignore directive: want %s <rule>[,<rule>...] <reason>", analysis.IgnorePrefix)
					continue
				}
				for _, rule := range rules {
					switch {
					case rule == "all" || rule == "*":
						pass.ReportStrictf(cm.Pos(),
							"catch-all //lint:ignore %s silences every rule; scope the directive to the specific rule it waives", rule)
					case !known[rule]:
						pass.ReportStrictf(cm.Pos(),
							"//lint:ignore names unknown rule %q; known rules: %s", rule, renderKnown())
					}
				}
			}
		}
	}
	for _, f := range pass.Files {
		check(f)
	}
	for _, f := range pass.TestFiles {
		check(f)
	}
	return nil, nil
}

func renderKnown() string {
	out := ""
	for i, r := range KnownRules {
		if i > 0 {
			out += ", "
		}
		out += r
	}
	return out
}
