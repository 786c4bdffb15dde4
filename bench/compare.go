package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	improved   = "improved"
	noWorse    = "no-worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minPairs is the fewest alternating pairs a claimed gain rests on.
const minPairs = 10

// e2eSpec is one end_to_end entry of BENCHMARK.json.
type e2eSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []e2eSpec `json:"end_to_end"`
}

// judge compares a change's runs b with its parent's runs a, where
// a[i] and b[i] form the i-th alternating pair:
//
//   - improved: at least minPairs pairs, b wins nine tenths of them
//     (ties count for neither side), and the medians differ in b's
//     favour by more than the distance between a's quartiles;
//   - unresolved: a's quartile spread, as a share of its median, is
//     wider than bound, unless every run of b beats every run of a;
//   - regressed: b's median is worse than a's by more than bound, as
//     a share of a's median;
//   - no-worse: otherwise.
func judge(a, b []float64, higherBetter bool, bound float64) (wins, pairs int, verdict string) {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, unresolved
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) > 0 {
			wins++
		}
	}
	medA, medB := median(a), median(b)
	q1, _, q3 := quartiles(a)
	spread := q3 - q1
	gain := sign * (medB - medA)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs >= minPairs && wins*10 >= 9*pairs && gain > spread:
		return wins, pairs, improved
	case spread > bound*math.Abs(medA) && !allBetter:
		return wins, pairs, unresolved
	case -gain > bound*math.Abs(medA):
		return wins, pairs, regressed
	}
	return wins, pairs, noWorse
}

// readRecords loads the end-to-end runs (trace 0) of a JSON-lines file
// written by --out, grouped by workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareMain implements `bench compare [-bench BENCHMARK.json] A B`:
// A holds the parent's runs and B the change's. It prints a verdict
// for every workload and end-to-end metric, and exits 1 if any
// regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	var spec benchFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", *benchPath, err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err == nil {
		var b map[string][]record
		b, err = readRecords(fs.Arg(1))
		if err == nil {
			return report(os.Stdout, spec, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	return 2
}

func report(w io.Writer, spec benchFile, a, b map[string][]record) int {
	var names []string
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB wins\tbound\tverdict")
	code := 0
	for _, name := range names {
		if _, ok := b[name]; !ok {
			fmt.Fprintf(os.Stderr, "compare: workload %s has no runs in B\n", name)
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			wins, pairs, v := judge(va, vb, m.Better == "higher", m.Bound)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%g\t%s\n",
				name, m.Name, summary(va, m.Unit), summary(vb, m.Unit), wins, pairs, m.Bound, v)
		}
	}
	tw.Flush()
	return code
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64, unit string) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%d runs", len(xs))
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", q2, unit, q1, q3)
}
