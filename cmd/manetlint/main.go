// Command manetlint is the repository's static-analysis multichecker:
// it runs the full internal/lint analyzer suite (see DESIGN.md §10)
// over module packages and fails the build on any finding.
//
// Usage:
//
//	manetlint [-json] [packages]
//
// Patterns default to ./... and support the loader's subset of go
// syntax (import paths, directories, the /... wildcard). Exit status
// is 0 for a clean tree, 1 when findings are reported, 2 for usage or
// driver errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/lint"
)

func main() {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "manetlint:", err)
		os.Exit(2)
	}
	os.Exit(run(os.Args[1:], cwd, os.Stdout, os.Stderr))
}

// run lints the packages named by args, resolving the module and any
// directory patterns from dir, and returns the process exit status.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("manetlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: manetlint [-json] [packages...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := analysis.FindModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "manetlint:", err)
		return 2
	}

	d := &analysis.Driver{Analyzers: lint.Analyzers()}
	findings, err := d.Run(root, dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "manetlint:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "manetlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "manetlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}
