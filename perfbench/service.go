package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimassembler/internal/assembly"
	"pimassembler/internal/debruijn"
	"pimassembler/internal/engine"
	"pimassembler/internal/genome"
	"pimassembler/internal/metrics"
	"pimassembler/internal/service"
	"pimassembler/internal/stats"
)

// service-noisy: a seeded pool of small noisy read sets served over a real
// loopback listener, in three phases.
const (
	// poolSize is large enough that each phase's latency tail is a property
	// of the pool, not of its one or two costliest read sets.
	poolSize      = 64
	poolGenome    = 20_000
	poolReads     = 2_000
	poolErrorRate = 0.01
	poolMinCount  = 2

	// analyticalEvery sends every tenth pool item, and so about one job in
	// ten, to the analytical engine.
	analyticalEvery = 10

	// sloLimit is the fixed turnaround limit slo_met_share.r25 counts
	// against; a refused or failed job misses it.
	sloLimit = 250 * time.Millisecond

	// pollInterval is the client's status-poll period; it bounds how late
	// a finished job is noticed.
	pollInterval = 5 * time.Millisecond

	// drainWait bounds how long a block's jobs may run past its end, so a
	// stuck daemon fails the run well inside its time limit.
	drainWait = 10 * time.Second
)

// The phases and their shares of the measured time: open loops at two
// fixed rates and a closed loop. Each phase runs as blocks of about
// blockLen, interleaved round-robin (r10, r25, closed, r10, ...), so a slow
// stretch of the machine falls on every phase rather than on one.
var phases = []struct {
	name  string
	rate  float64 // jobs per second; 0 is the closed loop
	share float64
}{
	{"r10", 10, 0.4},
	{"r25", 25, 0.4},
	{"closed", 0, 0.2},
}

// blockLen is the nominal length of a block. Each block runs on a freshly
// booted daemon, so it also bounds how many finished jobs a daemon holds.
const blockLen = time.Second

// poolItem is one read set of the pool with its offline references.
type poolItem struct {
	genome *genome.Sequence
	reads  int
	text   string // the request's FASTA reads
	engine string
	ref    []debruijn.Contig // the offline run of the same request
	counts *assembly.OpCounts
}

// serviceBench drives an in-process daemon over a loopback listener.
type serviceBench struct {
	items  []poolItem
	order  []int // pool index of job ID i is order[i % poolSize]
	srv    *service.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	client *service.Client
	nextID atomic.Int64 // job IDs, shared by every phase's senders
	fresh  bool         // the daemon has served no phase yet
}

// serviceOptions mirrors what the daemon builds from a request with k,
// min_count and simplify set (MinOverlap follows k as k-4).
func serviceOptions() engine.Options {
	return engine.Options{Options: assembly.Options{
		K: k, MinCount: poolMinCount, Simplify: true, MinOverlap: k - 4,
	}}
}

func setupService(ctx context.Context, cfg config) (bench, error) {
	rng := stats.NewRNG(cfg.seed)
	b := &serviceBench{}
	for i := 0; i < poolSize; i++ {
		in := generate(rng, poolGenome, poolReads, poolErrorRate)
		text, err := fasta(in.reads)
		if err != nil {
			return nil, err
		}
		item := poolItem{genome: in.genome, reads: len(in.reads), text: string(text), engine: "software"}
		if i%analyticalEvery == 0 {
			item.engine = "pim-assembler"
		}
		rep, err := assemble(ctx, item.engine, in.reads, serviceOptions())
		if err != nil {
			return nil, fmt.Errorf("offline %s reference: %w", item.engine, err)
		}
		item.ref = rep.Contigs
		// A copy: rep.Counts points into the pipeline result and would keep
		// its k-mer table and graph alive.
		counts := *rep.Counts
		item.counts = &counts
		b.items = append(b.items, item)
	}
	// Jobs cycle through the pool in a seeded order, so every phase
	// samples the pool evenly.
	b.order = rng.Perm(poolSize)

	if err := b.boot(ctx); err != nil {
		return nil, err
	}
	return b, nil
}

// boot starts a fresh daemon behind a new loopback listener and waits
// until it answers.
func (b *serviceBench) boot(ctx context.Context) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = service.New(service.Config{Workers: nproc()})
	b.hs = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.tr = &http.Transport{MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}
	b.client = &service.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: b.tr}}
	b.fresh = true
	if ok, err := b.client.Healthz(ctx); err != nil || !ok {
		b.close()
		return fmt.Errorf("daemon not healthy: %v", err)
	}
	return nil
}

func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	b.srv.Drain(ctx)
	b.tr.CloseIdleConnections()
	return err
}

// pick is the pool item job id sends.
func (b *serviceBench) pick(id int) *poolItem { return &b.items[b.order[id%poolSize]] }

// jobResult is one service job as the client saw it.
type jobResult struct {
	item                      *poolItem
	ok, refused               bool
	late                      time.Duration // generator's lateness (open loop)
	turnaround, submit, fetch time.Duration
	polls                     int
	waitMS, runMS             float64
	contigs                   []debruijn.Contig
}

// job submits one request, polls it to a terminal state, fetches its
// contigs and checks them. Turnaround runs from due, the time the job was
// scheduled to be sent.
func (b *serviceBench) job(ctx context.Context, tr *Tracer, id int, due time.Time) jobResult {
	item := b.pick(id)
	r := jobResult{item: item}
	root := tr.Begin(id, nil, "service.job")
	if root != nil {
		root.Start = due
	}
	defer root.Finish(nil)

	s := tr.Begin(id, root, "service.submit")
	t0 := time.Now()
	st, err := b.client.Submit(ctx, service.SubmitRequest{
		Engine: item.engine, Reads: item.text, K: k, MinCount: poolMinCount, Simplify: true,
	})
	r.submit = time.Since(t0)
	s.Finish(nil)
	if err != nil {
		var apiErr *service.APIError
		r.refused = errors.As(err, &apiErr) && apiErr.Overloaded()
		fmt.Fprintf(os.Stderr, "perfbench: job %d submit: %v\n", id, err)
		return r
	}
	for !st.Terminal() {
		time.Sleep(pollInterval)
		s := tr.Begin(id, root, "service.poll")
		st, err = b.client.Status(ctx, st.ID)
		s.Finish(nil)
		r.polls++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d poll: %v\n", id, err)
			return r
		}
	}
	if st.State != "done" {
		fmt.Fprintf(os.Stderr, "perfbench: job %d ended %s: %s\n", id, st.State, st.Error)
		return r
	}
	s = tr.Begin(id, root, "service.fetch")
	t0 = time.Now()
	body, err := b.client.Contigs(ctx, st.ID)
	r.fetch = time.Since(t0)
	s.Finish(nil)
	r.turnaround = time.Since(due)
	r.waitMS, r.runMS = st.WaitMS, st.RunMS
	if err == nil {
		r.contigs, err = parseContigs(body)
	}
	r.ok = checkJob(id, err, func() error { return sameContigs(item.ref, r.contigs) })
	return r
}

// phaseResult collects one phase's jobs.
type phaseResult struct {
	mu   sync.Mutex
	jobs []jobResult
}

func (p *phaseResult) add(r jobResult) {
	p.mu.Lock()
	p.jobs = append(p.jobs, r)
	p.mu.Unlock()
}

// openLoop sends jobs at fixed intervals for d (at least one), each on its
// own goroutine over the client's nproc connections, waits for them all,
// and adds them to p.
func (b *serviceBench) openLoop(ctx context.Context, tr *Tracer, rate float64, d time.Duration, p *phaseResult) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * interval)
		if i > 0 && due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		late := time.Since(due)
		id := int(b.nextID.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := b.job(ctx, tr, id, due)
			r.late = late
			p.add(r)
		}()
	}
	wg.Wait()
}

// closedLoop runs nproc clients for d that each send their next job as
// soon as the previous one is fetched (at least one each), and adds the
// jobs to p.
func (b *serviceBench) closedLoop(ctx context.Context, tr *Tracer, d time.Duration, p *phaseResult) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ctx.Err() == nil && (n == 0 || time.Since(start) < d); n++ {
				p.add(b.job(ctx, tr, int(b.nextID.Add(1)), time.Now()))
			}
		}()
	}
	wg.Wait()
}

func (b *serviceBench) run(ctx context.Context, d time.Duration, tr *Tracer) (*outcome, error) {
	o := newOutcome()
	m := o.metrics
	// Each block starts on a fresh daemon: its job queue keeps every
	// finished job's result, so a daemon's memory grows with the jobs it
	// has served, and blocks must not inherit that.
	type block struct {
		phase int
		d     time.Duration
	}
	var plan []block
	for i, more := 0, true; more; i++ {
		more = false
		for p, ph := range phases {
			span := ph.share * float64(d)
			n := max(1, int(math.Round(span/float64(blockLen))))
			if i < n {
				plan = append(plan, block{p, time.Duration(span / float64(n))})
				more = true
			}
		}
	}
	results := map[string]*phaseResult{}
	for _, ph := range phases {
		results[ph.name] = &phaseResult{}
	}
	for _, bl := range plan {
		if !b.fresh {
			if err := b.close(); err != nil {
				return nil, err
			}
			if err := b.boot(ctx); err != nil {
				return nil, err
			}
		}
		b.fresh = false
		// Collect the previous block's garbage now rather than inside
		// this block's measurement.
		runtime.GC()
		// Jobs still running drainWait after the block ends fail rather
		// than hold the run.
		bctx, cancel := context.WithTimeout(ctx, bl.d+drainWait)
		ph, res := phases[bl.phase], results[phases[bl.phase].name]
		if ph.rate > 0 {
			b.openLoop(bctx, tr, ph.rate, bl.d, res)
		} else {
			b.closedLoop(bctx, tr, bl.d, res)
		}
		cancel()
	}

	var late, wait, run, overhead, submit, fetch []float64
	served := map[*poolItem][]debruijn.Contig{}
	polls, refused := 0, 0
	for _, ph := range phases {
		p := results[ph.name]
		var phaseTurn []float64
		within := 0
		for _, r := range p.jobs {
			if ph.rate > 0 {
				late = append(late, ms(r.late))
			}
			submit = append(submit, ms(r.submit))
			if r.refused {
				refused++
			}
			polls += r.polls
			if !r.ok {
				o.failed++
				continue
			}
			served[r.item] = r.contigs
			t := ms(r.turnaround)
			phaseTurn = append(phaseTurn, t)
			wait = append(wait, r.waitMS)
			run = append(run, r.runMS)
			overhead = append(overhead, t-r.waitMS-r.runMS)
			fetch = append(fetch, ms(r.fetch))
			if r.turnaround <= sloLimit {
				within++
			}
		}
		sent := len(p.jobs)
		o.attempted += sent
		switch ph.name {
		case "r10", "r25":
			m["turnaround_p50_ms."+ph.name] = quantile(phaseTurn, 0.5)
			m["service.turnaround_p95_ms."+ph.name] = quantile(phaseTurn, 0.95)
			if ph.name == "r25" {
				m["slo_met_share.r25"] = share(within, sent)
			} else {
				// The least-queued phase is what tracing is compared on.
				for _, t := range phaseTurn {
					o.unit = append(o.unit, t/1e3)
				}
			}
		case "closed":
			// Little's law: nproc clients, each with one job in flight,
			// complete nproc jobs per turnaround. The median turnaround
			// keeps a burst of load from outside the benchmark, which
			// slows a few jobs, from moving the rates.
			okJobs, reads := 0, 0
			for _, r := range p.jobs {
				if r.ok {
					okJobs++
					reads += r.item.reads
				}
			}
			m["capacity_jobs_per_s"], m["reads_per_s"] = 0, 0
			if t := median(phaseTurn) / 1e3; t > 0 {
				m["capacity_jobs_per_s"] = float64(nproc()) / t
				m["reads_per_s"] = m["capacity_jobs_per_s"] * float64(reads) / float64(okJobs)
			}
		}
	}
	m["ok_share"] = share(o.attempted-o.failed, o.attempted)
	var fractions, n50s []float64
	for item, contigs := range served {
		q := metrics.Evaluate(contigs, item.genome)
		fractions = append(fractions, 100*q.GenomeFraction)
		n50s = append(n50s, float64(q.N50))
	}
	m["genome_fraction_pct"] = mean(fractions)
	m["quality.n50_bp"] = mean(n50s)

	if err := behindSchedule(late, phases[1].rate); err != nil {
		o.invalid = append(o.invalid, err.Error())
	}
	if tr == nil {
		return o, nil
	}

	m["loadgen.late_ms_p95"] = quantile(late, 0.95)
	m["jobqueue.wait_ms_p50"] = quantile(wait, 0.5)
	m["jobqueue.wait_ms_p95"] = quantile(wait, 0.95)
	m["jobqueue.run_ms_p50"] = quantile(run, 0.5)
	m["service.submit_ms_p50"] = quantile(submit, 0.5)
	m["service.submit_ms_p95"] = quantile(submit, 0.95)
	m["service.fetch_ms_p50"] = quantile(fetch, 0.5)
	m["service.polls_per_job"] = float64(polls) / float64(max(o.attempted, 1))
	m["service.refused_share"] = share(refused, o.attempted)
	m["service.overhead_ms_p50"] = quantile(overhead, 0.5)
	if err := b.replay(ctx, tr); err != nil {
		return nil, err
	}
	t := byName(tr.Spans())
	layerMetrics(m, t)
	m["genome.parse_s"] = t.medianDur("genome.parse")
	return o, nil
}

// replayItems is how many pool items the traced run replays.
const replayItems = 16

// replay runs the first replayItems pool items once more outside the
// daemon, after the load phases: the request text through the genome
// parser, the engine call, and the pipeline stages through the kmer and
// debruijn layers.
func (b *serviceBench) replay(ctx context.Context, tr *Tracer) error {
	opts := serviceOptions()
	for i := range b.items[:replayItems] {
		item := &b.items[i]
		id := int(b.nextID.Add(1))
		root := tr.Begin(id, nil, "replay")
		s := tr.Begin(id, root, "genome.parse")
		reads, err := parseReads(item.text)
		if err != nil {
			return err
		}
		s.Finish(map[string]float64{"reads": float64(len(reads))})
		s = tr.Begin(id, root, "engine.assemble")
		rep, err := assemble(ctx, "software", reads, opts)
		if err != nil {
			return err
		}
		s.Finish(nil)
		stageSpans(tr, id, s, rep.Timings)
		layers(tr, id, root, reads, opts.Options)
		root.Finish(nil)
		if err := price(ctx, tr, id, item.counts); err != nil {
			return err
		}
	}
	return nil
}

// behindSchedule fails when the open-loop generator sent its jobs late:
// the 95th percentile of lateness (ms) above a quarter of the interval at
// the fastest rate means arrivals no longer follow the schedule.
func behindSchedule(lateMS []float64, rate float64) error {
	limit := 1e3 / rate / 4
	if p95 := quantile(lateMS, 0.95); p95 > limit {
		return fmt.Errorf("load generator fell behind schedule: p95 lateness %.1f ms > %.1f ms", p95, limit)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
