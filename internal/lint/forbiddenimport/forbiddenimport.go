// Package forbiddenimport defines an Analyzer enforcing the
// repository's import hygiene: no math/rand or crypto/rand inside the
// rand scope (all randomness flows through internal/rng) and no time
// import anywhere (simulated time flows through the DES clock).
// Outside the simulation packages a time import may be waived with
// //lint:ignore forbiddenimport <reason>; inside them the finding is
// strict and cannot be waived. Test files are checked too: a _test.go
// pulling in math/rand undermines the same reproducibility guarantees.
package forbiddenimport

import (
	"go/ast"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Policy vars, overridable by tests; the defaults are this
// repository's rules.
var (
	// RandForbidden are import paths banned inside RandScope.
	RandForbidden = []string{"math/rand", "math/rand/v2", "crypto/rand"}
	// RandScope are package-path segments (e.g. "internal") under which
	// RandForbidden applies strictly (annotations cannot waive it).
	RandScope = []string{"internal"}
	// SimPackages are package-path suffixes where importing "time" is
	// strictly forbidden — no annotation waives it there.
	SimPackages = []string{
		"internal/sim",
		"internal/simnet",
		"internal/cluster",
		"internal/lm",
		"internal/mobility",
		"internal/workload",
	}
)

var Analyzer = &analysis.Analyzer{
	Name: "forbiddenimport",
	Doc:  "flag math/rand, crypto/rand, and time imports that bypass internal/rng and the DES clock",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	pkgPath := pass.PkgPath
	if pkgPath == "" && pass.Pkg != nil {
		pkgPath = pass.Pkg.Path()
	}
	inRandScope := false
	for _, seg := range RandScope {
		if strings.Contains("/"+pkgPath+"/", "/"+seg+"/") {
			inRandScope = true
		}
	}
	isSimPkg := false
	for _, p := range SimPackages {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			isSimPkg = true
		}
	}
	check := func(f *ast.File) {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if inRandScope {
				for _, bad := range RandForbidden {
					if path == bad {
						pass.ReportStrictf(imp.Pos(),
							"import %q is forbidden under internal/: all randomness must flow through internal/rng", path)
					}
				}
			}
			if path == "time" && len(SimPackages) > 0 {
				if isSimPkg {
					pass.ReportStrictf(imp.Pos(),
						"import \"time\" is forbidden in simulation package %s: all time must flow through the DES clock (annotations cannot waive this)", pkgPath)
				} else {
					pass.Reportf(imp.Pos(),
						"import \"time\" couples the build to wall-clock time; route it through an annotated helper (//lint:ignore forbiddenimport <reason>)")
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
