package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/core"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/distshard"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/shard"
	"pimassembler/internal/stats"
)

// Fixed per-workload turnaround limits for slo_met_share.r25 on the batch
// workloads, three to four times the job latency measured when the
// benchmark was defined, so only a large slowdown moves the share.
const (
	inprocSLO  = 1 * time.Second
	shardedSLO = 3 * time.Second
	pimSLO     = 5 * time.Second
)

// minJobs is the fewest jobs a batch run measures, however long they take.
const minJobs = 3

// reference is the serial, unsharded software run every batch workload's
// output must reproduce byte for byte.
func reference(ctx context.Context, reads []*genome.Sequence) ([]debruijn.Contig, error) {
	rep, err := assemble(ctx, "software", reads, engine.Options{Options: assembly.Options{K: k}})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return rep.Contigs, nil
}

// engineBench is a closed loop of one engine.Assemble call at a time on one
// input: standard-inproc and pim-functional.
type engineBench struct {
	in     input
	engine string
	opts   engine.Options
	slo    time.Duration
	// check compares a job's report with the set-up references.
	check func(*engine.Report) error
	// replay re-runs the job's layers under root with spans, after the
	// engine call.
	replay func(tr *Tracer, id int, root *Span) error
	// layers derives the workload's own per-layer metrics from the spans.
	layers func(m map[string]float64, t spanTable)
}

// setupInproc: the standard input on the software engine with parallel
// counting. Its traced jobs replay the stages through kmer and debruijn.
func setupInproc(ctx context.Context, cfg config) (bench, error) {
	in := generate(stats.NewRNG(cfg.seed), standardGenome, standardReads, 0)
	ref, err := reference(ctx, in.reads)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Options: assembly.Options{K: k, CountWorkers: nproc()}}
	return &engineBench{
		in: in, engine: "software", opts: opts, slo: inprocSLO,
		check: func(rep *engine.Report) error { return sameContigs(ref, rep.Contigs) },
		replay: func(tr *Tracer, id int, root *Span) error {
			layers(tr, id, root, in.reads, opts.Options)
			return nil
		},
	}, nil
}

// PIM functional workload: 150 reads from a 2 kbp genome on 16 sub-arrays.
const (
	pimGenome    = 2_000
	pimReads     = 150
	pimSubarrays = 16
)

// setupPIM: the functional simulator through the engine layer. Its output
// must match the software reference's contigs and set-up's exact command
// count and modeled energy; its traced jobs replay the simulation through
// the core layer.
func setupPIM(ctx context.Context, cfg config) (bench, error) {
	in := generate(stats.NewRNG(cfg.seed), pimGenome, pimReads, 0)
	ref, err := reference(ctx, in.reads)
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Options: assembly.Options{K: k}, Subarrays: pimSubarrays}
	rep, err := assemble(ctx, "pim", in.reads, opts)
	if err != nil {
		return nil, fmt.Errorf("reference PIM run: %w", err)
	}
	commands, energyPJ := rep.Functional.Commands, rep.Functional.EnergyPJ
	return &engineBench{
		in: in, engine: "pim", opts: opts, slo: pimSLO,
		check: func(rep *engine.Report) error {
			if err := sameContigs(ref, rep.Contigs); err != nil {
				return fmt.Errorf("against the software reference: %w", err)
			}
			if f := rep.Functional; f.Commands != commands || f.EnergyPJ != energyPJ {
				return fmt.Errorf("%d commands and %g pJ, want %d and %g", f.Commands, f.EnergyPJ, commands, energyPJ)
			}
			return nil
		},
		replay: func(tr *Tracer, id int, root *Span) error { return simulate(tr, id, root, in.reads, opts.Options, ref) },
		layers: coreMetrics,
	}, nil
}

func (b *engineBench) close() error { return nil }

func (b *engineBench) run(ctx context.Context, d time.Duration, tr *Tracer) (*outcome, error) {
	o := newOutcome()
	var st batchStats
	var last *engine.Report
	var runErr error
	loop(ctx, d, minJobs, func(id int) {
		root := tr.Begin(id, nil, "job")
		defer root.Finish(nil)
		span := tr.Begin(id, root, "engine.assemble")
		start := time.Now()
		rep, err := assemble(ctx, b.engine, b.in.reads, b.opts)
		wall := time.Since(start)
		span.Finish(nil)
		ok := checkJob(id, err, func() error { return b.check(rep) })
		st.add(wall, len(b.in.reads), ok, b.slo)
		if ok {
			last = rep
		}
		if tr == nil || rep == nil || runErr != nil {
			return
		}
		stageSpans(tr, id, span, rep.Timings)
		if runErr = b.replay(tr, id, root); runErr == nil {
			runErr = price(ctx, tr, id, rep.Counts)
		}
	})
	if runErr != nil {
		return nil, runErr
	}
	st.fill(o)
	if last != nil {
		quality(o, last.Contigs, b.in.genome)
	}
	if tr != nil {
		t := byName(tr.Spans())
		layerMetrics(o.metrics, t)
		if b.layers != nil {
			b.layers(o.metrics, t)
		}
	}
	return o, nil
}

// simulate replays the functional engine's two phases through the core
// layer: assembly.AssemblePIM on a fresh platform, then Platform.Summarize.
func simulate(tr *Tracer, id int, root *Span, reads []*genome.Sequence, opts assembly.Options, ref []debruijn.Contig) error {
	s := tr.Begin(id, root, "core.simulate")
	p := core.NewDefaultPlatform()
	res, err := assembly.AssemblePIM(p, reads, opts, pimSubarrays)
	if err != nil {
		return err
	}
	s.Finish(nil)
	if err := sameContigs(ref, res.Contigs); err != nil {
		return fmt.Errorf("replayed PIM run: %w", err)
	}
	s = tr.Begin(id, root, "core.summarize")
	sum := p.Summarize()
	s.Finish(map[string]float64{
		"commands": float64(sum.Commands), "energy_pj": sum.EnergyPJ, "makespan_ns": sum.Makespan.MakespanNS,
	})
	return nil
}

// coreMetrics derives the core layer's metrics from the simulate and
// summarize spans.
func coreMetrics(m map[string]float64, t spanTable) {
	m["core.simulate_s"] = t.medianDur("core.simulate")
	m["core.summarize_s"] = t.medianDur("core.summarize")
	m["core.commands"] = t.medianCount("core.summarize", "commands")
	if m["core.simulate_s"] > 0 {
		m["core.commands_per_s"] = m["core.commands"] / m["core.simulate_s"]
	}
	m["core.modeled_energy_uj"] = t.medianCount("core.summarize", "energy_pj") / 1e6
	m["core.modeled_makespan_us"] = t.medianCount("core.summarize", "makespan_ns") / 1e3
}

// --- standard-sharded ------------------------------------------------------

// shards is standard-sharded's spill-file count.
const shards = 4

// sharded partitions the standard input's FASTA file into spill shards and
// assembles them across worker processes, one job at a time.
type sharded struct {
	in   input
	ref  []debruijn.Contig
	path string // the reads as FASTA on disk
	dir  string // spill parent directory
	cfg  distshard.Config
	opts engine.Options
}

func setupSharded(ctx context.Context, cfg config) (bench, error) {
	in := generate(stats.NewRNG(cfg.seed), standardGenome, standardReads, 0)
	ref, err := reference(ctx, in.reads)
	if err != nil {
		return nil, err
	}
	text, err := fasta(in.reads)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.workdir, "reads.fasta")
	if err := os.WriteFile(path, text, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	opts := engine.Options{Options: assembly.Options{K: k}}
	b := &sharded{
		in: in, ref: ref, path: path, dir: cfg.workdir, opts: opts,
		cfg: distshard.Config{
			WorkerProcs: nproc(),
			WorkerCmd:   []string{exe},
			Env:         []string{workerEnv + "=1"},
			Opts:        opts,
		},
	}
	// Boot the worker fleet once on a small slice of the input, so a
	// binary that cannot serve the protocol fails set-up, not the run.
	boot, err := fasta(in.reads[:400])
	if err != nil {
		return nil, err
	}
	bootPath := filepath.Join(cfg.workdir, "boot.fasta")
	if err := os.WriteFile(bootPath, boot, 0o644); err != nil {
		return nil, err
	}
	if _, _, err := b.assemble(ctx, bootPath, nil, 0, nil); err != nil {
		return nil, fmt.Errorf("booting workers: %w", err)
	}
	return b, nil
}

func (b *sharded) close() error { return nil }

// assemble partitions the FASTA at path and runs the shards on the worker
// fleet, with spans under root when tracing.
func (b *sharded) assemble(ctx context.Context, path string, tr *Tracer, id int, root *Span) (*shard.Result, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	s := tr.Begin(id, root, "shard.partition")
	sp, err := shard.Partition(ctx, f, genome.FormatFASTA, shard.SpillConfig{
		Shards: shards, Dir: b.dir, MaxResidentReads: standardReads / shards,
	})
	if err != nil {
		return nil, 0, err
	}
	defer sp.Close()
	s.Finish(map[string]float64{"spill_bytes": float64(sp.Bytes())})

	cfg := b.cfg
	if tr != nil {
		cfg.Counters = metrics.NewCounters()
	}
	s = tr.Begin(id, root, "distshard.assemble")
	res, err := distshard.Assemble(ctx, sp, cfg)
	if err != nil {
		return nil, 0, err
	}
	if tr != nil {
		s.Finish(map[string]float64{
			"respawns":        float64(cfg.Counters.Get("dist.respawns")),
			"frame_errors":    float64(cfg.Counters.Get("dist.frame.errors")),
			"slowest_shard_s": slowestShard(res).Seconds(),
		})
	}
	return res, sp.TotalReads(), nil
}

func (b *sharded) run(ctx context.Context, d time.Duration, tr *Tracer) (*outcome, error) {
	o := newOutcome()
	var st batchStats
	var last *shard.Result
	var runErr error
	loop(ctx, d, minJobs, func(id int) {
		root := tr.Begin(id, nil, "job")
		if tr != nil {
			if err := b.parse(tr, id, root); err != nil && runErr == nil {
				runErr = err
			}
		}
		start := time.Now()
		res, reads, err := b.assemble(ctx, b.path, tr, id, root)
		wall := time.Since(start)
		ok := checkJob(id, err, func() error {
			if reads != int64(len(b.in.reads)) {
				return fmt.Errorf("partitioned %d reads, want %d", reads, len(b.in.reads))
			}
			return sameContigs(b.ref, res.Report.Contigs)
		})
		st.add(wall, len(b.in.reads), ok, shardedSLO)
		if ok {
			last = res
		}
		if tr != nil && res != nil {
			s := tr.Begin(id, root, "shard.merge")
			merged, err := shard.Merge(res.PerShard, res.Engines, b.opts)
			if err != nil && runErr == nil {
				runErr = err
			}
			var counts map[string]float64
			if merged != nil {
				counts = map[string]float64{"redundancy": redundancy(res.PerShard, merged.Report.Contigs)}
			}
			s.Finish(counts)
			if runErr == nil {
				runErr = price(ctx, tr, id, res.Report.Counts)
			}
		}
		root.Finish(nil)
	})
	if runErr != nil {
		return nil, runErr
	}
	st.fill(o)
	if last != nil {
		quality(o, last.Report.Contigs, b.in.genome)
	}
	workers, err := childrenPeakRSSMB()
	if err != nil {
		return nil, err
	}
	o.metrics["peak_rss_mb"] = workers
	if tr != nil {
		t := byName(tr.Spans())
		m := o.metrics
		layerMetrics(m, t)
		m["genome.parse_s"] = t.medianDur("genome.parse")
		m["shard.partition_s"] = t.medianDur("shard.partition")
		m["shard.spill_mb"] = t.medianCount("shard.partition", "spill_bytes") / 1e6
		m["shard.merge_s"] = t.medianDur("shard.merge")
		m["shard.contig_redundancy"] = t.medianCount("shard.merge", "redundancy")
		m["distshard.assemble_s"] = t.medianDur("distshard.assemble")
		m["distshard.slowest_shard_s"] = t.medianCount("distshard.assemble", "slowest_shard_s")
		m["distshard.orchestration_s"] = m["distshard.assemble_s"] - m["distshard.slowest_shard_s"] - m["shard.merge_s"]
		m["distshard.respawns"] = t.sumCount("distshard.assemble", "respawns")
		m["distshard.frame_errors"] = t.sumCount("distshard.assemble", "frame_errors")
		m["distshard.worker_peak_rss_mb"] = workers
	}
	return o, nil
}

// parse scans the workload's FASTA file, the genome layer's share of a
// sharded job.
func (b *sharded) parse(tr *Tracer, id int, root *Span) error {
	f, err := os.Open(b.path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := tr.Begin(id, root, "genome.parse")
	n := 0
	err = genome.ScanRecords(f, genome.FormatFASTA, func(genome.Record) error {
		n++
		return nil
	})
	s.Finish(map[string]float64{"reads": float64(n)})
	return err
}

// slowestShard is the longest per-shard stage time the workers reported.
func slowestShard(res *shard.Result) time.Duration {
	var slowest time.Duration
	for _, rep := range res.PerShard {
		if t := rep.Timings; t != nil {
			slowest = max(slowest, t.Hashmap+t.DeBruijn+t.Traverse+t.Scaffold)
		}
	}
	return slowest
}

// redundancy is the per-shard contig bases over the merged contig bases:
// 1 means the shards assembled nothing the merge threw away.
func redundancy(perShard []*engine.Report, merged []debruijn.Contig) float64 {
	total := 0
	for _, rep := range perShard {
		total += debruijn.TotalBases(rep.Contigs)
	}
	if m := debruijn.TotalBases(merged); m > 0 {
		return float64(total) / float64(m)
	}
	return 0
}
