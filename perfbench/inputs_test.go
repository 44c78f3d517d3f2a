package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/index"
)

var testSpec = inputSpec{numSeqs: 300, perFamily: 4, numQueries: 40, numWarmup: 3}

func sameInputs(t *testing.T, a, b *inputs) {
	t.Helper()
	if a.db.NumSeqs() != b.db.NumSeqs() || a.db.TotalResidues() != b.db.TotalResidues() {
		t.Fatalf("databases differ in size")
	}
	for i := range a.db.Seqs {
		if a.db.Seqs[i].ID != b.db.Seqs[i].ID || !bytes.Equal(a.db.Seqs[i].Residues, b.db.Seqs[i].Residues) {
			t.Fatalf("database sequence %d differs", i)
		}
	}
	for f := range a.families {
		if len(a.families[f].members) != len(b.families[f].members) {
			t.Fatalf("family %d differs", f)
		}
		for j := range a.families[f].members {
			if a.families[f].members[j] != b.families[f].members[j] {
				t.Fatalf("family %d member %d differs", f, j)
			}
		}
	}
	for i := range a.queries {
		if a.queries[i].text != b.queries[i].text || a.queries[i].family != b.queries[i].family {
			t.Fatalf("query %d differs", i)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sameInputs(t, makeInputs(7, testSpec), makeInputs(7, testSpec))
}

func TestOtherSeedOtherQueries(t *testing.T) {
	a, b := makeInputs(7, testSpec), makeInputs(8, testSpec)
	same := 0
	for i := range a.queries {
		if a.queries[i].text == b.queries[i].text {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d of %d queries identical across seeds", same, len(a.queries))
	}
}

func TestFamilyGeneratorDeterministic(t *testing.T) {
	root := bio.PaperQuery("P14942").Residues
	gen := func() []uint8 {
		return mutate(root, 0.3, rand.New(rand.NewSource(42)), newSampler())
	}
	a, b := gen(), gen()
	if !bytes.Equal(a, b) {
		t.Fatal("mutate is not deterministic for a fixed seed")
	}
	if bytes.Equal(a, root) {
		t.Fatal("mutate left the root unchanged")
	}
	in := makeInputs(7, testSpec)
	for f, fam := range in.families {
		if len(fam.members) != testSpec.perFamily {
			t.Fatalf("family %d has %d members, want %d", f, len(fam.members), testSpec.perFamily)
		}
		for _, m := range fam.members {
			if in.db.Seqs[m].Desc != "planted homolog of "+fam.root.ID {
				t.Fatalf("family %d member at %d is %q", f, m, in.db.Seqs[m].ID)
			}
		}
	}
}

// workCounts is the work a query list asks of the layers: cells of an
// exhaustive scan and candidates of the indexed path.
func workCounts(in *inputs) (cells float64, cands int) {
	ix := index.Build(in.db, index.Options{})
	s := index.NewSearcher(ix, in.db, align.PaperParams(), index.SearchOptions{})
	for _, q := range in.queries {
		cells += float64(len(q.res)) * float64(in.db.TotalResidues())
		cands += len(s.Candidates(q.res, index.DefaultMaxCandidates))
	}
	return cells, cands
}

func TestSameSeedSameWork(t *testing.T) {
	c1, n1 := workCounts(makeInputs(7, testSpec))
	c2, n2 := workCounts(makeInputs(7, testSpec))
	if c1 != c2 || n1 != n2 {
		t.Fatalf("work differs: cells %v vs %v, candidates %d vs %d", c1, c2, n1, n2)
	}
}

// TestSameSeedSameAnswers runs each workload twice on one seed at its
// smallest size: the answer figures must repeat exactly.
func TestSameSeedSameAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service six times")
	}
	for name, run := range workloads {
		cfg := runConfig{seed: 3, seconds: 1, procs: 2, workDir: t.TempDir()}
		a, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !a.Correct || !b.Correct {
			t.Fatalf("%s: answers failed the oracle (%d, %d failed)", name, a.Failed, b.Failed)
		}
		for _, k := range []string{"recall_at_k", "ok_frac"} {
			if a.Metrics[k] != b.Metrics[k] {
				t.Errorf("%s: %s %v then %v", name, k, a.Metrics[k].Value, b.Metrics[k].Value)
			}
		}
		if a.Attempted != b.Attempted {
			t.Errorf("%s: attempted %d then %d", name, a.Attempted, b.Attempted)
		}
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name string }       `json:"workloads"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts that got holds exactly the declared names, in
// the declared units.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: %s missing", label, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s in %s, declared %s", label, w.Name, m.Unit, w.Unit)
		}
	}
}

// TestEveryMetricPrinted runs each workload untraced and traced at its
// smallest size and checks the printed metrics against BENCHMARK.json.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the service for every workload")
	}
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %s is not in the benchmark", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{seed: 5, seconds: 1, trace: traced, procs: 2, workDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", w.Name, traced, res.Correct, res.Attempted)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			checkMetrics(t, fmt.Sprintf("%s trace=%v", w.Name, traced), res.Metrics, want)
		}
	}
}
