package runner

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/par"
	"repro/internal/simnet"
)

func tinyScale() Scale {
	return Scale{Ns: []int{48, 80}, Seeds: 1, Duration: 20, Warmup: 5, BigN: 64}
}

func TestSweepDeterministicOrder(t *testing.T) {
	spec := SweepSpec{
		Ns: []int{40, 60}, Seeds: 2,
		Base:        simnet.Config{Duration: 15, Warmup: 5},
		Parallelism: 2,
	}
	a := Sweep(spec)
	b := Sweep(spec)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("cell counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].N != b[i].N || a[i].Seed != b[i].Seed {
			t.Fatal("sweep order not deterministic")
		}
		if a[i].Err != nil {
			t.Fatal(a[i].Err)
		}
		if a[i].R.PhiRate != b[i].R.PhiRate {
			t.Fatal("sweep results not deterministic")
		}
	}
	// N-major ordering.
	if a[0].N != 40 || a[1].N != 40 || a[2].N != 60 {
		t.Fatalf("order: %v %v %v %v", a[0].N, a[1].N, a[2].N, a[3].N)
	}
}

// TestSweepDuplicateNsGetDistinctSeeds is the regression test for the
// (N, seed-index) seed derivation: a sweep listing the same N twice
// used to run byte-identical cells, silently halving the sample size.
func TestSweepDuplicateNsGetDistinctSeeds(t *testing.T) {
	spec := SweepSpec{
		Ns: []int{48, 48}, Seeds: 2,
		Base:        simnet.Config{Duration: 15, Warmup: 5},
		Parallelism: 2,
	}
	cells := Sweep(spec)
	if len(cells) != 4 {
		t.Fatalf("cell count %d, want 4", len(cells))
	}
	seen := map[uint64]bool{}
	for _, c := range cells {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		if seen[c.Seed] {
			t.Fatalf("seed %d reused across cells", c.Seed)
		}
		seen[c.Seed] = true
	}
	// The duplicate-N cells must be distinct runs, not replays.
	if cells[0].R.PhiRate == cells[2].R.PhiRate && cells[0].R.F0 == cells[2].R.F0 {
		t.Fatal("duplicate-N cells produced identical results; seeds still collide")
	}
}

func TestAggregate(t *testing.T) {
	spec := SweepSpec{
		Ns: []int{40, 60}, Seeds: 2,
		Base: simnet.Config{Duration: 15, Warmup: 5},
	}
	rows, errs := Aggregate(Sweep(spec))
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].N != 40 || rows[1].N != 60 {
		t.Fatal("row order wrong")
	}
	for _, r := range rows {
		if r.Phi.N() != 2 {
			t.Fatalf("N=%d aggregated %d seeds", r.N, r.Phi.N())
		}
		if r.Total.Mean() <= 0 {
			t.Fatalf("N=%d zero total", r.N)
		}
	}
	ns, ys := Series(rows, func(r *AggRow) float64 { return r.Total.Mean() })
	if len(ns) != 2 || len(ys) != 2 || ns[0] != 40 {
		t.Fatal("series extraction wrong")
	}
}

func TestAggregateCollectsErrors(t *testing.T) {
	cells := []CellResult{{N: 10, Seed: 1, Err: errTest}}
	rows, errs := Aggregate(cells)
	if len(rows) != 0 || len(errs) != 1 {
		t.Fatalf("rows=%d errs=%d", len(rows), len(errs))
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }

func TestTableWriter(t *testing.T) {
	tw := NewTable("a", "bb", "c")
	tw.Row("1", "2", "3")
	tw.Rowf(42, 3.14159, "x")
	out := tw.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All lines equal width (aligned).
	for _, l := range lines[1:] {
		if len(l) > len(lines[0])+2 {
			t.Fatalf("misaligned table:\n%s", out)
		}
	}
	if !strings.Contains(out, "3.1416") {
		t.Fatalf("float formatting missing: %s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345:   "12345",
		12.3456: "12.35",
		0.5:     "0.5000",
		1e-5:    "1.00e-05",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Fatalf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "A1", "A2", "A3", "A4", "A5", "A6", "Z1"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Paper == "" || reg[i].Run == nil {
			t.Fatalf("experiment %s incomplete", id)
		}
	}
	if _, ok := Find("E7"); !ok {
		t.Fatal("Find(E7) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("Find(E99) succeeded")
	}
}

// TestExperimentsSmoke runs every experiment at tiny scale and checks
// it produces output without error. This is the end-to-end integration
// test of the entire harness.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	sc := tinyScale()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(&buf, sc); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
}

func TestRenderHierarchy(t *testing.T) {
	h, _, _ := staticHierarchy(25, 1)
	var buf bytes.Buffer
	RenderHierarchy(&buf, h)
	if !strings.Contains(buf.String(), "level 0") || !strings.Contains(buf.String(), "cluster") {
		t.Fatalf("render output:\n%s", buf.String())
	}
}

// TestSweepRecoversPanics: a panicking cell must land in its own
// CellResult.Err (with the origin stack) instead of crashing the
// sweep, and Aggregate must route it to errs.
func TestSweepRecoversPanics(t *testing.T) {
	spec := SweepSpec{
		Ns: []int{12}, Seeds: 2, Parallelism: 2,
		Base: simnet.Config{
			Duration: 2, Warmup: -1,
			Observer: func(simnet.ObsEvent) { panic("boom") },
		},
	}
	cells := Sweep(spec)
	if len(cells) != 2 {
		t.Fatalf("cell count %d", len(cells))
	}
	for _, c := range cells {
		if c.Err == nil || c.R != nil {
			t.Fatalf("panicking cell not captured: %+v", c)
		}
		var pe *par.PanicError
		if !errors.As(c.Err, &pe) {
			t.Fatalf("Err is %T, want *par.PanicError", c.Err)
		}
		if !strings.Contains(pe.Error(), "boom") || len(pe.Stack) == 0 {
			t.Fatalf("panic origin lost: %v", pe)
		}
	}
	rows, errs := Aggregate(cells)
	if len(rows) != 0 || len(errs) != 2 {
		t.Fatalf("aggregate: %d rows, %d errs", len(rows), len(errs))
	}
}

// TestAggregateRaggedLevels: per-seed Results may carry per-level
// slices of different lengths (one seed's hierarchy a level shallower,
// or slices populated by other tooling). Aggregate used to index every
// slice with one shared range and panicked on the shorter ones.
func TestAggregateRaggedLevels(t *testing.T) {
	cells := []CellResult{
		{N: 50, Seed: 1, R: &simnet.Results{
			PhiRate: 1, GammaRate: 2,
			PhiRateByLevel:   []float64{1, 2, 3},
			GammaRateByLevel: []float64{1},        // shorter than Phi
			FMigByLevel:      []float64{0.5, 0.5}, // mid length
			GPrimeByLevel:    nil,                 // absent entirely
			NodesByLevel:     []float64{50, 10, 2},
			EdgesByLevel:     []float64{120},
			HopMeanByLevel:   []float64{0, 2.5}, // level 0 unsampled
		}},
		{N: 50, Seed: 2, R: &simnet.Results{
			PhiRate: 3, GammaRate: 4,
			PhiRateByLevel:   []float64{2},
			GammaRateByLevel: []float64{3, 4, 5, 6}, // longer than seed 1's
			NodesByLevel:     []float64{50, 12},
		}},
	}
	rows, errs := Aggregate(cells)
	if len(errs) != 0 {
		t.Fatal(errs)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	if got := len(row.PhiByLevel); got != 3 {
		t.Fatalf("PhiByLevel levels = %d, want 3", got)
	}
	if got := row.PhiByLevel[0].N(); got != 2 {
		t.Fatalf("PhiByLevel[0] samples = %d, want 2", got)
	}
	if got := row.PhiByLevel[2].N(); got != 1 {
		t.Fatalf("PhiByLevel[2] samples = %d, want 1 (only seed 1 reached level 2)", got)
	}
	if got := len(row.GammaByLevel); got != 4 {
		t.Fatalf("GammaByLevel levels = %d, want 4", got)
	}
	if got := len(row.GPrimeByLevel); got != 0 {
		t.Fatalf("GPrimeByLevel levels = %d, want 0", got)
	}
	// HopMeanByLevel zeros mean "unsampled" and must not enter the mean.
	if got := len(row.HopByLevel); got != 2 {
		t.Fatalf("HopByLevel levels = %d, want 2", got)
	}
	if got := row.HopByLevel[0].N(); got != 0 {
		t.Fatalf("HopByLevel[0] samples = %d, want 0 (zero = unsampled)", got)
	}
}

// TestSweepProgress: a Progress writer receives one line per cell with
// running done/failed counts, and failed cells are counted as such.
func TestSweepProgress(t *testing.T) {
	var buf bytes.Buffer
	spec := SweepSpec{
		Ns: []int{24, 32}, Seeds: 2,
		Base:     simnet.Config{Duration: 5, Warmup: -1},
		Progress: &buf,
	}
	cells := Sweep(spec)
	for _, c := range cells {
		if c.Err != nil {
			t.Fatal(c.Err)
		}
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("progress lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		if !strings.Contains(ln, "/4 cells done") {
			t.Fatalf("malformed progress line %q", ln)
		}
	}
	if !strings.Contains(lines[3], "4/4 cells done") || strings.Contains(lines[3], "failed") {
		t.Fatalf("final line %q", lines[3])
	}

	// A failing cell (N=0 is rejected by simnet.Run) shows up in the
	// failed count rather than being silently folded into "done".
	buf.Reset()
	spec = SweepSpec{
		Ns: []int{0}, Seeds: 1,
		Base:     simnet.Config{Duration: 5, Warmup: -1},
		Progress: &buf,
	}
	cells = Sweep(spec)
	if cells[0].Err == nil {
		t.Fatal("expected N=0 cell to fail")
	}
	if !strings.Contains(buf.String(), "(1 failed)") || !strings.Contains(buf.String(), "FAILED") {
		t.Fatalf("failure not reported: %q", buf.String())
	}
}
