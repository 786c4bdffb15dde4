package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/analysis"
)

// lintModule runs the command entry on the testdata module named mod and
// returns its exit status, stdout and stderr.
func lintModule(t *testing.T, mod string, args ...string) (int, string, string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", mod))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(args, dir, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCleanModule(t *testing.T) {
	code, stdout, stderr := lintModule(t, "clean")
	if code != 0 || stdout != "" {
		t.Fatalf("clean module: exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

func TestExitFindings(t *testing.T) {
	code, stdout, stderr := lintModule(t, "dirty", "./...")
	if code != 1 {
		t.Fatalf("dirty module: exit %d, stderr %q; want exit 1", code, stderr)
	}
	want := regexp.MustCompile(`^stats/stats\.go:6:2: maprange: range over map m has nondeterministic order; .*\n$`)
	if !want.MatchString(stdout) {
		t.Fatalf("dirty module: stdout %q does not match %s", stdout, want)
	}
	if stderr != "manetlint: 1 finding(s)\n" {
		t.Errorf("dirty module: stderr %q", stderr)
	}
}

func TestJSONFindings(t *testing.T) {
	code, stdout, stderr := lintModule(t, "dirty", "-json")
	if code != 1 {
		t.Fatalf("dirty module -json: exit %d, stderr %q; want exit 1", code, stderr)
	}
	var got []analysis.Finding
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("-json output does not parse as []analysis.Finding: %v\n%s", err, stdout)
	}
	want := analysis.Finding{File: "stats/stats.go", Line: 6, Col: 2, Rule: "maprange"}
	if len(got) != 1 || got[0].File != want.File || got[0].Line != want.Line ||
		got[0].Col != want.Col || got[0].Rule != want.Rule {
		t.Fatalf("-json findings %+v; want one at %s:%d:%d %s", got, want.File, want.Line, want.Col, want.Rule)
	}

	code, stdout, stderr = lintModule(t, "clean", "-json")
	if code != 0 {
		t.Fatalf("clean module -json: exit %d, stderr %q; want exit 0", code, stderr)
	}
	if err := json.Unmarshal([]byte(stdout), &got); err != nil || len(got) != 0 {
		t.Fatalf("clean module -json: %q (err %v); want an empty array", stdout, err)
	}
}

func TestUsageError(t *testing.T) {
	if code, _, _ := lintModule(t, "clean", "-no-such-flag"); code != 2 {
		t.Fatalf("unknown flag: exit %d; want 2", code)
	}
}
