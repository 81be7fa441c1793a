package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

// sharedPipeline builds the small-scale pipeline once per test binary; the
// experiments are read-only consumers.
var (
	pipeOnce sync.Once
	pipe     *synthpop.Pipeline
	pipeErr  error
)

func testPipeline(t *testing.T) *synthpop.Pipeline {
	t.Helper()
	pipeOnce.Do(func() {
		pipe, pipeErr = synthpop.BuildPipeline(synth.SmallScale(99))
	})
	if pipeErr != nil {
		t.Fatalf("BuildPipeline: %v", pipeErr)
	}
	return pipe
}

// defaults is the paper's setting with the engine knobs at their zero
// values.
func defaults() Params { return Params{Params: synthpop.DefaultParams()} }

func TestBuildPipelineClassification(t *testing.T) {
	p := testPipeline(t)
	cfg := synth.SmallScale(99)
	if len(p.HonestIDs) != cfg.Honest {
		t.Errorf("honest = %d, want %d", len(p.HonestIDs), cfg.Honest)
	}
	planted := 0
	for _, s := range cfg.CommunitySizes {
		planted += s
	}
	// Detection is noisy but must be close: at least 90% of planted
	// collusive workers found, and NCM misclassification below 10%.
	if len(p.CMIDs) < planted*9/10 {
		t.Errorf("CM detected = %d, want >= %d", len(p.CMIDs), planted*9/10)
	}
	if len(p.NCMIDs) < cfg.NonCollusive*9/10 {
		t.Errorf("NCM = %d, want >= %d", len(p.NCMIDs), cfg.NonCollusive*9/10)
	}
	if p.EffortScale <= 0 {
		t.Errorf("EffortScale = %v", p.EffortScale)
	}
	for cls, fit := range p.ClassFit {
		if err := fit.Quadratic.Validate(1); err != nil {
			t.Errorf("class %v fit invalid: %v", cls, err)
		}
	}
}

func TestPipelinePartition(t *testing.T) {
	p := testPipeline(t)
	part, err := p.Partition(10)
	if err != nil {
		t.Fatal(err)
	}
	if part.M != 10 || part.YMax() <= 0 {
		t.Errorf("partition = %+v", part)
	}
	// Every class psi must be valid across the partition.
	for cls, fit := range p.ClassFit {
		if err := fit.Quadratic.Validate(part.YMax()); err != nil {
			t.Errorf("class %v psi invalid on partition: %v", cls, err)
		}
	}
}

func TestPipelineWorkerWeight(t *testing.T) {
	p := testPipeline(t)
	params := synthpop.DefaultParams()
	// Honest workers generally out-weigh collusive ones on average.
	avg := func(ids []string) float64 {
		var sum float64
		n := 0
		for _, id := range ids {
			w, err := p.WorkerWeight(id, params)
			if err != nil {
				t.Fatalf("WorkerWeight(%s): %v", id, err)
			}
			sum += w
			n++
		}
		return sum / float64(n)
	}
	honestAvg := avg(p.HonestIDs)
	cmAvg := avg(p.CMIDs)
	if !(honestAvg > cmAvg) {
		t.Errorf("honest avg weight %v <= CM avg weight %v", honestAvg, cmAvg)
	}
}

func TestPipelineClassOf(t *testing.T) {
	p := testPipeline(t)
	if len(p.HonestIDs) == 0 || len(p.NCMIDs) == 0 || len(p.CMIDs) == 0 {
		t.Fatal("classification empty")
	}
	if got := p.ClassOf(p.HonestIDs[0]); got != worker.Honest {
		t.Errorf("ClassOf(honest) = %v", got)
	}
	if got := p.ClassOf(p.NCMIDs[0]); got != worker.NonCollusiveMalicious {
		t.Errorf("ClassOf(ncm) = %v", got)
	}
	if got := p.ClassOf(p.CMIDs[0]); got != worker.CollusiveMalicious {
		t.Errorf("ClassOf(cm) = %v", got)
	}
}

func TestRegistryCoversAllExperiments(t *testing.T) {
	wantIDs := []string{"fig6", "table2", "fig7", "table3", "fig8a", "fig8b", "fig8c", "ablation", "adversary", "sensitivity", "classify", "dynamics", "params", "calibration", "budget", "retention", "stationarity", "assignment"}
	reg := Registry()
	if len(reg) != len(wantIDs) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(wantIDs))
	}
	for i, id := range wantIDs {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%s) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{
		ID:     "x",
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	s := rep.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// noteAsserts verifies every shape-check note in a report reads "true".
func noteAsserts(t *testing.T, rep *Report) {
	t.Helper()
	for _, n := range rep.Notes {
		if strings.Contains(n, "false") {
			t.Errorf("%s: failed shape check: %s", rep.ID, n)
		}
	}
}

func TestRunFig6(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig6(p, defaults())
	if err != nil {
		t.Fatalf("RunFig6: %v", err)
	}
	if len(rep.Rows) != 2*len(fig6Ms) {
		t.Errorf("rows = %d, want %d", len(rep.Rows), 2*len(fig6Ms))
	}
	noteAsserts(t, rep)
	// Independent convergence check at mu=1.
	gaps, err := Fig6Convergence(p, defaults(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] > gaps[i-1]+1e-9 {
			t.Errorf("gap grew from m=%d to m=%d: %v -> %v", fig6Ms[i-1], fig6Ms[i], gaps[i-1], gaps[i])
		}
	}
	if last := gaps[len(gaps)-1]; last > gaps[0]/2 {
		t.Errorf("final gap %v not well below initial %v", last, gaps[0])
	}
}

func TestRunTable2(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunTable2(p, defaults())
	if err != nil {
		t.Fatalf("RunTable2: %v", err)
	}
	if len(rep.Rows) < 6 {
		t.Errorf("rows = %d, want >= 6 buckets", len(rep.Rows))
	}
	// Size-2 bucket must dominate, mirroring Table II.
	var counts []int
	for _, row := range rep.Rows {
		c, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad count cell %q", row[1])
		}
		counts = append(counts, c)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[0] {
			t.Errorf("bucket %s (%d) exceeds size-2 bucket (%d)", rep.Rows[i][0], counts[i], counts[0])
		}
	}
}

func TestRunFig7(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig7(p, defaults())
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	if len(rep.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunTable3(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunTable3(p, defaults())
	if err != nil {
		t.Fatalf("RunTable3: %v", err)
	}
	if len(rep.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rep.Rows))
	}
	noteAsserts(t, rep)
	// NoR must be non-increasing across orders within each row.
	for _, row := range rep.Rows {
		prev := 1e300
		for _, cell := range row[2:8] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				t.Fatalf("bad NoR cell %q", cell)
			}
			if v > prev*1.0001 {
				t.Errorf("NoR increased along row %v", row)
			}
			prev = v
		}
	}
}

func TestRunFig8a(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig8a(p, defaults())
	if err != nil {
		t.Fatalf("RunFig8a: %v", err)
	}
	if len(rep.Rows) != len(fig8aMs) {
		t.Errorf("rows = %d, want %d", len(rep.Rows), len(fig8aMs))
	}
	noteAsserts(t, rep)
}

func TestRunFig8b(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig8b(p, defaults())
	if err != nil {
		t.Fatalf("RunFig8b: %v", err)
	}
	if len(rep.Rows) != 9 { // 3 mus x 3 classes
		t.Errorf("rows = %d, want 9", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunFig8c(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunFig8c(p, defaults())
	if err != nil {
		t.Fatalf("RunFig8c: %v", err)
	}
	if len(rep.Rows) != 3 { // dynamic, exclusion, fixed
		t.Errorf("rows = %d, want 3", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunAblation(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunAblation(p, defaults())
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(rep.Rows) != len(ablationMs) {
		t.Errorf("rows = %d, want %d", len(rep.Rows), len(ablationMs))
	}
	// Ratio column must stay close to 1 (near-optimality).
	for _, row := range rep.Rows {
		ratio, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[3])
		}
		// Ratios can exceed 1 (the grid is only a sampled optimum); the
		// near-optimality claim is that they never fall far below 1.
		if ratio < 0.85 {
			t.Errorf("m=%s: designed/grid ratio %v < 0.85", row[0], ratio)
		}
	}
}

func TestRunAdversaryExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunAdversary(p, defaults())
	if err != nil {
		t.Fatalf("RunAdversary: %v", err)
	}
	if len(rep.Rows) != 3 { // three attack strategies
		t.Errorf("rows = %d, want 3", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunSensitivityAblation(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunSensitivity(p, defaults())
	if err != nil {
		t.Fatalf("RunSensitivity: %v", err)
	}
	if len(rep.Rows) != 4 { // four estimator quality levels
		t.Errorf("rows = %d, want 4", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunClassifyExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunClassify(p, defaults())
	if err != nil {
		t.Fatalf("RunClassify: %v", err)
	}
	if len(rep.Rows) != 2 { // designed vs flat
		t.Errorf("rows = %d, want 2", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunDynamicsExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunDynamics(p, defaults())
	if err != nil {
		t.Fatalf("RunDynamics: %v", err)
	}
	if len(rep.Rows) < 2 {
		t.Errorf("rows = %d, want >= 2", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunParamsAblation(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunParams(p, defaults())
	if err != nil {
		t.Fatalf("RunParams: %v", err)
	}
	if len(rep.Rows) != 9 { // 5 omegas + 4 betas
		t.Errorf("rows = %d, want 9", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunCalibrationExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunCalibration(p, defaults())
	if err != nil {
		t.Fatalf("RunCalibration: %v", err)
	}
	if len(rep.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunBudgetExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunBudget(p, defaults())
	if err != nil {
		t.Fatalf("RunBudget: %v", err)
	}
	if len(rep.Rows) != 7 { // seven budget fractions
		t.Errorf("rows = %d, want 7", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunRetentionExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunRetention(p, defaults())
	if err != nil {
		t.Fatalf("RunRetention: %v", err)
	}
	if len(rep.Rows) != 10 { // 5 reservations x 2 policies
		t.Errorf("rows = %d, want 10", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunStationarityExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunStationarity(p, defaults())
	if err != nil {
		t.Fatalf("RunStationarity: %v", err)
	}
	if len(rep.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestRunAssignmentExtension(t *testing.T) {
	p := testPipeline(t)
	rep, err := RunAssignment(p, defaults())
	if err != nil {
		t.Fatalf("RunAssignment: %v", err)
	}
	if len(rep.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(rep.Rows))
	}
	noteAsserts(t, rep)
}

func TestSampleIDs(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	if got := synthpop.SampleIDs(ids, 10); len(got) != 6 {
		t.Errorf("undersized sample = %v", got)
	}
	got := synthpop.SampleIDs(ids, 3)
	if len(got) != 3 {
		t.Fatalf("sample = %v, want 3 elements", got)
	}
	if got[0] != "a" {
		t.Errorf("strided sample should start at first element, got %v", got)
	}
	// Deterministic.
	again := synthpop.SampleIDs(ids, 3)
	for i := range got {
		if got[i] != again[i] {
			t.Error("sampleIDs not deterministic")
		}
	}
}
