package main

import (
	"fmt"
	"runtime"
	"time"

	"phish/internal/cputime"
	"phish/internal/strata"
	"phish/internal/types"
)

// workload is one set of inputs the benchmark runs. Every round of every
// workload runs the round's input four ways, one after another: a Phish
// job at the workload's primary P, a Phish job at the other P (1 or 2),
// Strata at P=1, and the serial reference. The primary jobs give the job
// wall times; all four give the paper's ratios on the same input.
type workload struct {
	name     string
	primaryP int
	inputs   func(seed int64) []Input
}

var workloads = []workload{
	{
		name:     "fib",
		primaryP: 1,
		inputs:   func(int64) []Input { return []Input{{"fib", []int64{24}}} },
	},
	{
		name:     "jobs",
		primaryP: 2,
		inputs:   func(seed int64) []Input { return genJobs(seed, 200) },
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// round is one input run four ways.
type round struct {
	in        Input
	p1, p2    outcome // the Phish jobs at P=1 and P=2
	primaryP  int
	strata    *strata.Result
	strataCPU time.Duration // process CPU time of the Strata run
	serialNS  float64       // serial reference, CPU ns per call
}

// primary is the round's job at the workload's primary P.
func (rd *round) primary() *outcome {
	if rd.primaryP == 1 {
		return &rd.p1
	}
	return &rd.p2
}

// runner drives one workload for one seed and checks every answer.
type runner struct {
	w      workload
	seed   int64
	inputs []Input
	want   map[string]types.Value
	job    types.JobID

	attempted, failed int
	failures          []string
}

func newRunner(w workload, seed int64) *runner {
	return &runner{w: w, seed: seed}
}

// setup draws the inputs from the seed, then, for every distinct input,
// computes its reference answer and runs it once as a cold P=1 job. Every
// seed draws the same set of distinct inputs, so set-up does the same
// work whatever the seed; P=1 keeps the steal timeout's release tail out
// of it.
func (r *runner) setup() {
	r.inputs = r.w.inputs(r.seed)
	r.want = make(map[string]types.Value)
	for _, in := range r.inputs {
		if _, ok := r.want[in.String()]; ok {
			continue
		}
		r.want[in.String()] = in.want()
		r.check(in, "setup", r.phish(in, 1, 0, nil))
	}
}

func (r *runner) phish(in Input, p int, salt int64, rec *recorder) outcome {
	r.job++
	return runJob(in, p, r.job, r.workerSeed(salt), rec)
}

// workerSeed derives each job's worker Config.Seed from the workload seed.
func (r *runner) workerSeed(salt int64) int64 { return r.seed*1_000_003 + salt }

func (r *runner) check(in Input, what string, o outcome) {
	r.attempted++
	switch {
	case o.Err != nil:
		r.fail(in, what, o.Err.Error())
	case !sameAnswer(o.Value, r.want[in.String()]):
		r.fail(in, what, fmt.Sprintf("wrong answer %v", o.Value))
	}
}

func (r *runner) fail(in Input, what, why string) {
	r.failed++
	r.noteFailure(fmt.Sprintf("%s %s: %s", in, what, why))
}

// noteFailure keeps the first failures' descriptions for the run's FAILED lines.
func (r *runner) noteFailure(desc string) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, desc)
	}
}

// runRound runs round i: the primary job, the other-P job, Strata and the
// serial reference, all on the same input. Each of the three timed runs
// starts from a collected heap, as a job cmd/phish launches starts in a
// fresh process; otherwise the garbage one run leaves is collected during
// the next, and which run pays for it depends on where the collector's
// cycle falls, which shifts from one benchmark process to the next.
func (r *runner) runRound(i int, rec *recorder) round {
	in := r.inputs[i%len(r.inputs)]
	rd := round{in: in, primaryP: r.w.primaryP}
	other := 3 - r.w.primaryP
	runtime.GC()
	po := r.phish(in, r.w.primaryP, int64(4*i+1), rec)
	r.check(in, fmt.Sprintf("phish P=%d", r.w.primaryP), po)
	runtime.GC()
	oo := r.phish(in, other, int64(4*i+2), rec)
	r.check(in, fmt.Sprintf("phish P=%d", other), oo)
	if r.w.primaryP == 1 {
		rd.p1, rd.p2 = po, oo
	} else {
		rd.p1, rd.p2 = oo, po
	}

	cfg := strata.DefaultConfig()
	cfg.Seed = r.workerSeed(int64(4*i + 3))
	cfg.Timeout = jobTimeout
	runtime.GC()
	cpu0 := processCPU()
	sres, err := strata.Run(in.program(), in.root(), in.rootArgs(), 1, cfg)
	rd.strataCPU = processCPU() - cpu0
	so := outcome{Err: err}
	if err == nil {
		so.Value = sres.Value
		rd.strata = sres
	}
	r.check(in, "strata P=1", so)
	rd.serialNS = serialCPU(in)
	return rd
}

// runFor runs rounds until d has elapsed and returns them.
func (r *runner) runFor(d time.Duration, rec *recorder) []round {
	var rounds []round
	end := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		rounds = append(rounds, r.runRound(i, rec))
	}
	return rounds
}

// serialCPU times in's serial reference in CPU nanoseconds per call,
// repeating the call until 2 ms of CPU have been spent so that
// microsecond-scale references are resolved.
func serialCPU(in Input) float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, _ := cputime.Thread()
	n := 0
	for {
		in.serial()
		n++
		t, _ := cputime.Thread()
		if d := t - t0; d >= 2*time.Millisecond {
			return float64(d) / float64(n)
		}
	}
}
