// Command manetlint is the repository's static-analysis multichecker:
// it runs the full internal/lint analyzer suite (see DESIGN.md §10)
// over module packages and fails the build on any finding.
//
// Usage:
//
//	manetlint [-json] [-only rule,rule] [packages]
//
// Patterns default to ./... and support the loader's subset of go
// syntax (import paths, directories, the /... wildcard). Exit status
// is 0 for a clean tree, 1 when findings are reported, 2 for driver
// errors.
//
// The binary also speaks cmd/go's vettool protocol (-V=full, -flags,
// and a single *.cfg argument), so the same suite runs incrementally
// under go's build cache:
//
//	go vet -vettool=$(pwd)/bin/manetlint ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	// The vettool handshake comes before flag parsing: cmd/go probes
	// with -V=full and -flags, then invokes the tool once per package
	// with a single .cfg argument.
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			// cmd/go keys its vet cache on this line; fingerprint the
			// executable so a rebuilt tool invalidates stale results.
			fmt.Printf("manetlint version %s (repro static gates)\n", selfFingerprint())
			return 0
		case args[0] == "-flags" || args[0] == "--flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return analysis.RunUnitchecker(lint.Analyzers(), args[0])
		}
	}

	fs := flag.NewFlagSet("manetlint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list the analyzer catalog and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: manetlint [-json] [-only rule,rule] [packages...]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	suite := lint.Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		keep := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			keep[strings.TrimSpace(name)] = true
		}
		var filtered []*analysis.Analyzer
		for _, a := range suite {
			if keep[a.Name] {
				filtered = append(filtered, a)
				delete(keep, a.Name)
			}
		}
		if len(keep) > 0 {
			unknown := make([]string, 0, len(keep))
			for name := range keep {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "manetlint: unknown analyzer(s) %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
		suite = filtered
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "manetlint:", err)
		return 2
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "manetlint:", err)
		return 2
	}

	d := &analysis.Driver{Analyzers: suite}
	findings, err := d.Run(root, cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "manetlint:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "manetlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "manetlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// selfFingerprint hashes this executable so the vettool version string
// changes whenever the binary does.
func selfFingerprint() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
