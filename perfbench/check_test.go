package main

import (
	"errors"
	"testing"
	"time"

	"pimassembler/internal/debruijn"
	"pimassembler/internal/genome"
)

func contigSet(seqs ...string) []debruijn.Contig {
	out := make([]debruijn.Contig, len(seqs))
	for i, s := range seqs {
		out[i] = debruijn.Contig{Seq: genome.MustFromString(s)}
	}
	return out
}

// TestPerturbedOutputCountsAsFailed checks that a contig set differing from
// the reference in one base, in order or in count is counted as a failed
// job, and only then.
func TestPerturbedOutputCountsAsFailed(t *testing.T) {
	ref := contigSet("ACGTACGTAC", "GGGTTTCCCA")
	flipped := contigSet("ACGTACGTAC", "GGGTTTCCCA")
	flipped[1].Seq.SetBase(4, genome.A)
	cases := []struct {
		name string
		got  []debruijn.Contig
		ok   bool
	}{
		{"identical", contigSet("ACGTACGTAC", "GGGTTTCCCA"), true},
		{"one base flipped", flipped, false},
		{"reordered", contigSet("GGGTTTCCCA", "ACGTACGTAC"), false},
		{"contig dropped", contigSet("ACGTACGTAC"), false},
	}
	var st batchStats
	for _, c := range cases {
		ok := checkJob(0, nil, func() error { return sameContigs(ref, c.got) })
		if ok != c.ok {
			t.Errorf("%s: check passed = %v, want %v", c.name, ok, c.ok)
		}
		st.add(time.Millisecond, 10, ok, time.Second)
	}
	if checkJob(0, errors.New("engine failed"), func() error { return nil }) {
		t.Error("a job that returned an error passed its check")
	}
	o := newOutcome()
	st.fill(o)
	if o.attempted != 4 || o.failed != 3 || o.metrics["ok_share"] != 0.25 {
		t.Errorf("attempted %d, failed %d, ok_share %v; want 4, 3, 0.25", o.attempted, o.failed, o.metrics["ok_share"])
	}
	res, err := finish(o, endToEnd[:0], true)
	if err != nil || res.Correct {
		t.Errorf("a run with failed jobs reported correct=%v (err %v)", res.Correct, err)
	}
}

// TestServedFASTARoundTrip checks that the served-contig parser recovers
// the sequences the daemon writes.
func TestServedFASTARoundTrip(t *testing.T) {
	body := []byte(">contig_0 len=10 cov=2.0\nACGTACGTAC\n>contig_1 len=10 cov=1.0\nGGGTTTCCCA\n")
	got, err := parseContigs(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameContigs(contigSet("ACGTACGTAC", "GGGTTTCCCA"), got); err != nil {
		t.Fatal(err)
	}
}

// TestLateGeneratorInvalidatesRun checks the open-loop schedule guard.
func TestLateGeneratorInvalidatesRun(t *testing.T) {
	if err := behindSchedule([]float64{0.1, 0.2, 0.3}, 25); err != nil {
		t.Errorf("an on-time generator was flagged: %v", err)
	}
	late := make([]float64, 20)
	for i := range late {
		late[i] = 30
	}
	if err := behindSchedule(late, 25); err == nil {
		t.Error("a generator 30 ms behind a 40 ms schedule was not flagged")
	}
}
