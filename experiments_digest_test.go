package manet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/experiment_digests.json from the current code")

const experimentDigestsPath = "testdata/experiment_digests.json"

// TestQuickExperimentDigests pins every experiment's quick-scale report:
// it reruns each registered experiment at QuickScale and compares the
// SHA-256 of its output with the stored digest. The whole registry takes
// several seconds, so -short skips it. Regenerate (go test -run
// TestQuickExperimentDigests -update .) only for an intended change of
// an experiment's output.
func TestQuickExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at quick scale")
	}
	got := map[string]string{}
	for _, e := range Experiments() {
		var buf bytes.Buffer
		if err := RunExperiment(&buf, e.ID, QuickScale()); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[e.ID] = hex.EncodeToString(sum[:])
	}
	if *updateDigests {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentDigestsPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(experimentDigestsPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d experiments registered, %d digests stored", len(got), len(want))
	}
	for _, e := range Experiments() {
		if w, ok := want[e.ID]; !ok {
			t.Errorf("%s: no stored digest", e.ID)
		} else if got[e.ID] != w {
			t.Errorf("%s: quick output digest %s, stored %s", e.ID, got[e.ID], w)
		}
	}
}

// TestRecordHasEveryExperiment: the full-scale record
// experiments_full.txt must hold one "===== <ID> — " section per
// registered experiment and no section for an ID the runner does not
// register. Whether the sections' figures match the code is the
// nightly record gate's job, which reruns the full scale.
func TestRecordHasEveryExperiment(t *testing.T) {
	b, err := os.ReadFile("experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	sections := map[string]int{}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "===== "); ok {
			id, _, _ := strings.Cut(rest, " — ")
			ids = append(ids, id)
			sections[id]++
		}
	}
	registered := map[string]bool{}
	for _, e := range Experiments() {
		registered[e.ID] = true
		if n := sections[e.ID]; n != 1 {
			t.Errorf("%s: %d sections in experiments_full.txt, want 1", e.ID, n)
		}
	}
	for _, id := range ids {
		if !registered[id] {
			t.Errorf("experiments_full.txt has a section %q for no registered experiment", id)
		}
	}
}
