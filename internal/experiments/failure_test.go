package experiments

import (
	"errors"
	"testing"

	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/trace"
)

// TestBuildPipelineNoMaliciousWorkers: a trace with only honest workers
// must fail cleanly (the per-class fitting needs all three classes), not
// panic or produce NaNs.
func TestBuildPipelineNoMaliciousWorkers(t *testing.T) {
	cfg := synth.SmallScale(1)
	cfg.NonCollusive = 0
	cfg.CommunitySizes = nil
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synthpop.BuildPipelineFromTrace(tr, 1); !errors.Is(err, synthpop.ErrPipeline) {
		t.Fatalf("err = %v, want synthpop.ErrPipeline", err)
	}
}

// TestBuildPipelineTinyTrace: a minimal trace whose classes have too few
// reviews for fitting must fail with the pipeline error, not crash.
func TestBuildPipelineTinyTrace(t *testing.T) {
	tr := &trace.Trace{
		Reviews: []trace.Review{
			{ID: "r1", WorkerID: "h1", ProductID: "p1", Score: 3, Length: 10, Upvotes: 1},
			{ID: "r2", WorkerID: "m1", ProductID: "p2", Score: 5, Length: 10, Upvotes: 1},
		},
		Workers: map[string]trace.Worker{
			"h1": {ID: "h1"},
			"m1": {ID: "m1", Malicious: true, TargetProducts: []string{"p2"}},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := synthpop.BuildPipelineFromTrace(tr, 1); !errors.Is(err, synthpop.ErrPipeline) {
		t.Fatalf("err = %v, want synthpop.ErrPipeline", err)
	}
}

// TestBuildPipelineZeroUpvoteTrace: all-zero feedback gives a flat trend;
// the concave-increasing fit must be rejected through synthpop.ErrPipeline.
func TestBuildPipelineZeroUpvoteTrace(t *testing.T) {
	cfg := synth.SmallScale(2)
	cfg.HonestShape = synth.ClassShape{A: 0.0001, B: 0, Noise: 0}
	cfg.MaliciousShape = synth.ClassShape{A: 0.0001, B: 0, Noise: 0}
	cfg.UpvoteProb = 0
	tr, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = synthpop.BuildPipelineFromTrace(tr, 2)
	if err == nil {
		// A degenerate fit may still squeak through with epsilon slopes;
		// what matters is no panic and a decisive outcome either way.
		t.Log("degenerate trace produced a (barely) valid fit")
		return
	}
	if !errors.Is(err, synthpop.ErrPipeline) {
		t.Fatalf("err = %v, want synthpop.ErrPipeline", err)
	}
}

// TestPipelineWorkerWeightUnknownWorker: weights for unknown IDs error.
func TestPipelineWorkerWeightUnknownWorker(t *testing.T) {
	p := testPipeline(t)
	if _, err := p.WorkerWeight("no-such-worker", synthpop.DefaultParams()); !errors.Is(err, synthpop.ErrPipeline) {
		t.Fatalf("err = %v, want synthpop.ErrPipeline", err)
	}
}

// TestPipelineCommunityAgentOutOfRange: invalid community indexes error.
func TestPipelineCommunityAgentOutOfRange(t *testing.T) {
	p := testPipeline(t)
	part, err := p.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CommunityAgent(-1, synthpop.DefaultParams(), part); !errors.Is(err, synthpop.ErrPipeline) {
		t.Error("negative index accepted")
	}
	if _, err := p.CommunityAgent(len(p.Communities), synthpop.DefaultParams(), part); !errors.Is(err, synthpop.ErrPipeline) {
		t.Error("out-of-range index accepted")
	}
}

// TestPipelineClassPointsUnknownClass: an invalid class errors.
func TestPipelineClassPointsUnknownClass(t *testing.T) {
	p := testPipeline(t)
	if _, _, err := p.ClassPoints(0); !errors.Is(err, synthpop.ErrPipeline) {
		t.Fatalf("err = %v, want synthpop.ErrPipeline", err)
	}
}
