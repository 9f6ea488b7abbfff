package main

import (
	"context"
	"os"
	"testing"

	"pimassembler/internal/distshard"
)

// TestMain doubles as the worker-process entry point, as main does, so
// standard-sharded can re-execute the test binary as its workers.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := distshard.RunWorker(os.Stdin, os.Stdout, nil); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkloadsPassOnTwoSeeds sets every workload up on two seeds and runs
// its shortest measurement: every job must reproduce its reference, and
// the run must produce every end-to-end metric.
func TestWorkloadsPassOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("assembles every workload twice")
	}
	ctx := context.Background()
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			cfg := config{workload: w.name, seed: seed, workdir: t.TempDir()}
			b, err := w.setup(ctx, cfg)
			if err != nil {
				t.Fatalf("%s seed %d: set-up: %v", w.name, seed, err)
			}
			o, err := b.run(ctx, 1, nil)
			if cerr := b.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			o.metrics["setup_s"], o.metrics["peak_rss_mb"] = 1, 1
			res, err := finish(o, endToEnd, true)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d", w.name, seed, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func TestSeedIsRequired(t *testing.T) {
	if _, err := parseFlags([]string{"--workload", "standard-inproc"}); err == nil {
		t.Error("a run without --seed was accepted")
	}
	if _, err := parseFlags([]string{"--workload", "nope", "--seed", "1"}); err == nil {
		t.Error("an unknown workload was accepted")
	}
	cfg, err := parseFlags([]string{"--workload", "pim-functional", "--seed", "0", "--trace", "1"})
	if err != nil || cfg.seed != 0 || !cfg.trace {
		t.Errorf("seed 0 with tracing: %+v, %v", cfg, err)
	}
}
