package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/kmer"
	"pimassembler/internal/metrics"
	"pimassembler/internal/stats"
)

// Every workload assembles 101 bp reads with k = 16.
const (
	k       = 16
	readLen = 101
)

// The ROADMAP's standard input: a 200 kbp genome and 20 000 error-free
// reads, about 10x coverage and 200 k distinct 16-mers.
const (
	standardGenome = 200_000
	standardReads  = 20_000
)

// input is one generated genome and the reads sampled from it.
type input struct {
	genome *genome.Sequence
	reads  []*genome.Sequence
}

// generate draws a genome of n bases and m reads from it with the given
// per-base substitution rate, from rng alone.
func generate(rng *stats.RNG, n, m int, errRate float64) input {
	g := genome.GenerateGenome(n, rng)
	return input{genome: g, reads: genome.NewReadSampler(g, readLen, errRate, rng).Sample(m)}
}

// fasta renders reads as FASTA text.
func fasta(reads []*genome.Sequence) ([]byte, error) {
	var buf bytes.Buffer
	w := genome.NewRecordWriter(&buf)
	for i, r := range reads {
		if err := w.Write(genome.Record{Name: fmt.Sprintf("r%d", i), Seq: r}); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// assemble runs one engine over reads.
func assemble(ctx context.Context, name string, reads []*genome.Sequence, opts engine.Options) (*engine.Report, error) {
	e, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	return e.Assemble(ctx, genome.NewSliceSource(reads), opts)
}

// sameContigs reports how got differs from the reference: it must hold the
// same contig sequences in the same order, byte for byte.
func sameContigs(want, got []debruijn.Contig) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d contigs, want %d", len(got), len(want))
	}
	for i := range want {
		if !want[i].Seq.Equal(got[i].Seq) {
			return fmt.Errorf("contig %d differs (%d bp, want %d bp)", i, got[i].Seq.Len(), want[i].Seq.Len())
		}
	}
	return nil
}

// parseContigs reads a served contig FASTA back into contigs.
func parseContigs(body []byte) ([]debruijn.Contig, error) {
	var out []debruijn.Contig
	err := genome.ScanRecords(bytes.NewReader(body), genome.FormatFASTA, func(r genome.Record) error {
		out = append(out, debruijn.Contig{Seq: r.Seq})
		return nil
	})
	return out, err
}

// quality scores contigs against the genome they came from.
func quality(o *outcome, contigs []debruijn.Contig, g *genome.Sequence) {
	q := metrics.Evaluate(contigs, g)
	o.metrics["genome_fraction_pct"] = 100 * q.GenomeFraction
	o.metrics["quality.n50_bp"] = float64(q.N50)
}

// loop calls job with IDs 1, 2, ... one at a time, until d has passed and
// at least min jobs ran, or ctx ends.
func loop(ctx context.Context, d time.Duration, min int, job func(id int)) {
	start := time.Now()
	for n := 0; ctx.Err() == nil && (n < min || time.Since(start) < d); n++ {
		job(n + 1)
	}
}

// checkJob reports whether a job succeeded and produced its reference
// output, logging why not.
func checkJob(id int, err error, check func() error) bool {
	if err == nil {
		err = check()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", id, err)
		return false
	}
	return true
}

// batchStats accumulates a closed loop of single jobs.
type batchStats struct {
	wallS     []float64 // every job's wall time
	okWallS   []float64 // the wall time of every job that passed its check
	okReads   int
	withinSLO int // ok jobs inside the SLO limit
}

func (s *batchStats) add(wall time.Duration, reads int, ok bool, slo time.Duration) {
	s.wallS = append(s.wallS, wall.Seconds())
	if ok {
		s.okWallS = append(s.okWallS, wall.Seconds())
		s.okReads += reads
		if wall <= slo {
			s.withinSLO++
		}
	}
}

// fill writes the end-to-end metrics of a closed loop. One caller runs one
// job at a time, so its throughput is the inverse of the job latency; the
// median latency of the passing jobs is used, so that a burst of load from
// outside the benchmark that slows a few jobs does not move the rates. A
// batch workload has no arrival rate, so both turnaround rows report the
// same median job latency.
func (s *batchStats) fill(o *outcome) {
	jobs, ok := len(s.wallS), len(s.okWallS)
	o.attempted += jobs
	o.failed += jobs - ok
	o.unit = append(o.unit, s.wallS...)
	m := o.metrics
	m["reads_per_s"], m["capacity_jobs_per_s"] = 0, 0
	if p50 := median(s.okWallS); p50 > 0 {
		m["reads_per_s"] = float64(s.okReads) / float64(ok) / p50
		m["capacity_jobs_per_s"] = 1 / p50
	}
	p50 := 1e3 * median(s.wallS)
	m["ok_share"] = share(ok, jobs)
	m["turnaround_p50_ms.r10"], m["turnaround_p50_ms.r25"] = p50, p50
	m["slo_met_share.r25"] = share(s.withinSLO, jobs)
}

// stageSpans records a software report's stage timings as children of the
// engine span, laid end to end from its start: the library measured their
// lengths, and the engine span's self time is what they leave uncovered.
func stageSpans(tr *Tracer, job int, parent *Span, t *assembly.StageTimings) {
	if tr == nil || t == nil {
		return
	}
	at := parent.Start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"assembly.hashmap", t.Hashmap},
		{"assembly.debruijn", t.DeBruijn},
		{"assembly.traverse", t.Traverse},
		{"assembly.scaffold", t.Scaffold},
	} {
		if st.d > 0 {
			tr.Add(job, parent, st.name, at, st.d)
			at = at.Add(st.d)
		}
	}
}

// layers replays the software pipeline's stages through the kmer and
// debruijn public APIs, one span each, so their cost is measured at the
// layer boundary. It mirrors assembly.Assemble's stage order and settings.
func layers(tr *Tracer, job int, parent *Span, reads []*genome.Sequence, opts assembly.Options) []debruijn.Contig {
	kmers := 0
	for _, r := range reads {
		if r.Len() >= opts.K {
			kmers += r.Len() - opts.K + 1
		}
	}
	s := tr.Begin(job, parent, "kmer.count")
	var table kmer.Counter
	if opts.CountWorkers > 1 {
		table = kmer.CountReadsParallel(reads, opts.K, opts.CountWorkers)
	} else {
		table = kmer.CountReads(reads, opts.K)
	}
	s.Finish(map[string]float64{
		"kmers": float64(kmers), "distinct": float64(table.Len()), "probes": float64(table.ProbeOps()),
	})

	s = tr.Begin(job, parent, "debruijn.build")
	var g *debruijn.Graph
	if opts.MinCount > 1 {
		entries := table.FilterMinCount(opts.MinCount)
		g = debruijn.NewGraphHint(opts.K, len(entries)+1, len(entries))
		for _, e := range entries {
			g.AddKmer(e.Kmer, e.Count)
		}
	} else {
		g = debruijn.Build(table)
	}
	s.Finish(map[string]float64{"nodes": float64(g.NumNodes()), "edges": float64(g.NumEdges())})

	if opts.Simplify {
		s = tr.Begin(job, parent, "debruijn.simplify")
		g.Simplify(2*opts.K, 2*opts.K, 10)
		s.Finish(nil)
	}

	s = tr.Begin(job, parent, "debruijn.traverse")
	_, _ = g.EulerPath() // the walk is diagnostic; only its cost is measured
	contigs := g.Contigs()
	s.Finish(nil)
	return contigs
}

// layerMetrics derives the kmer, debruijn, assembly and engine metrics from
// the recorded spans.
func layerMetrics(m map[string]float64, t spanTable) {
	m["kmer.count_s"] = t.medianDur("kmer.count")
	if c := t.medianDur("kmer.count"); c > 0 {
		m["kmer.kmers_per_s"] = t.medianCount("kmer.count", "kmers") / c
	}
	m["kmer.distinct"] = t.medianCount("kmer.count", "distinct")
	if n := t.medianCount("kmer.count", "kmers"); n > 0 {
		m["kmer.probes_per_kmer"] = t.medianCount("kmer.count", "probes") / n
	}
	m["debruijn.build_s"] = t.medianDur("debruijn.build")
	m["debruijn.simplify_s"] = t.medianDur("debruijn.simplify")
	m["debruijn.traverse_s"] = t.medianDur("debruijn.traverse")
	m["debruijn.nodes"] = t.medianCount("debruijn.build", "nodes")
	m["debruijn.edges"] = t.medianCount("debruijn.build", "edges")
	m["assembly.hashmap_s"] = t.medianDur("assembly.hashmap")
	m["assembly.debruijn_s"] = t.medianDur("assembly.debruijn")
	m["assembly.traverse_s"] = t.medianDur("assembly.traverse")
	if _, ok := t["assembly.hashmap"]; ok {
		m["engine.overhead_s"] = t.medianSelf("engine.assemble")
	}
	if calls := t.medianCount("engine.price", "calls"); calls > 0 {
		m["engine.price_ns"] = 1e9 * t.medianDur("engine.price") / calls
	}
}

// priceCalls is how many analytical pricings one engine.price span times;
// a single call is too short to time alone.
const priceCalls = 1000

// price times the analytical engine pricing a precomputed operation profile
// (Options.Counts), the engine layer's cheapest call.
func price(ctx context.Context, tr *Tracer, job int, counts *assembly.OpCounts) error {
	if tr == nil || counts == nil {
		return nil
	}
	e, err := engine.Lookup("pim-assembler")
	if err != nil {
		return err
	}
	opts := engine.Options{Options: assembly.Options{K: counts.K}, Counts: counts}
	s := tr.Begin(job, nil, "engine.price")
	for i := 0; i < priceCalls; i++ {
		if _, err := e.Assemble(ctx, nil, opts); err != nil {
			return err
		}
	}
	s.Finish(map[string]float64{"calls": priceCalls})
	return nil
}

// parseReads scans FASTA text the way the service and the spill partitioner
// do, returning the reads.
func parseReads(text string) ([]*genome.Sequence, error) {
	var reads []*genome.Sequence
	err := genome.ScanRecords(strings.NewReader(text), genome.FormatFASTA, func(r genome.Record) error {
		reads = append(reads, r.Seq)
		return nil
	})
	return reads, err
}
