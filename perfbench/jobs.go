package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"phish/internal/apps/fib"
	"phish/internal/apps/knary"
	"phish/internal/apps/nqueens"
	"phish/internal/apps/pfold"
	"phish/internal/core"
	"phish/internal/types"
)

// Input is one job: a bundled application and its integer arguments
// (fib: n; nqueens: n; pfold: n; knary: depth, fan, work).
type Input struct {
	App  string
	Args []int64
}

func (in Input) String() string {
	s := make([]string, len(in.Args))
	for i, a := range in.Args {
		s[i] = fmt.Sprint(a)
	}
	return in.App + "(" + strings.Join(s, ",") + ")"
}

func (in Input) program() *core.Program {
	switch in.App {
	case "fib":
		return fib.Program()
	case "nqueens":
		return nqueens.Program()
	case "pfold":
		return pfold.Program()
	default:
		return knary.Program()
	}
}

func (in Input) root() string {
	switch in.App {
	case "fib":
		return fib.Root
	case "nqueens":
		return nqueens.Root
	case "pfold":
		return pfold.Root
	default:
		return knary.Root
	}
}

func (in Input) rootArgs() []types.Value {
	a := in.Args
	switch in.App {
	case "fib":
		return fib.RootArgs(a[0])
	case "nqueens":
		return nqueens.RootArgs(int(a[0]))
	case "pfold":
		return pfold.RootArgs(int(a[0]), 0)
	default:
		return knary.RootArgs(a[0], a[1], a[2])
	}
}

// serial runs the application's best serial implementation. It is the
// reference timing behind serial_slowdown; its answer is the reference
// every parallel answer is checked against, except knary's, whose
// answer is the node count (knary.Nodes) and needs no run.
func (in Input) serial() types.Value {
	a := in.Args
	switch in.App {
	case "fib":
		return fib.Serial(a[0])
	case "nqueens":
		return nqueens.Serial(int(a[0]))
	case "pfold":
		return pfold.Serial(int(a[0]))
	default:
		return knary.Serial(a[0], a[1], a[2])
	}
}

// want is the answer a correct run of in returns.
func (in Input) want() types.Value {
	if in.App == "knary" {
		return knary.Nodes(in.Args[0], in.Args[1])
	}
	return in.serial()
}

// sameAnswer compares two job answers; pfold answers are histograms.
func sameAnswer(got, want types.Value) bool {
	if h, ok := want.([]int64); ok {
		g, ok := got.([]int64)
		return ok && slices.Equal(g, h)
	}
	return got == want
}

// jobMix is the `jobs` workload's mix: five short instances of each of
// the four applications, so grain (fib's empty tasks, knary's spins,
// pfold's and nqueens' serial leaves) and fan-out (2 to 8) vary from job
// to job. Each runs in a few to a few tens of milliseconds at P=2, so job
// start-up and release are a large share of every job.
var jobMix = []Input{
	{"fib", []int64{13}}, {"fib", []int64{14}}, {"fib", []int64{15}}, {"fib", []int64{16}}, {"fib", []int64{17}},
	{"nqueens", []int64{5}}, {"nqueens", []int64{6}}, {"nqueens", []int64{7}}, {"nqueens", []int64{8}}, {"nqueens", []int64{9}},
	{"pfold", []int64{7}}, {"pfold", []int64{8}}, {"pfold", []int64{9}}, {"pfold", []int64{10}}, {"pfold", []int64{11}},
	{"knary", []int64{3, 2, 64}}, {"knary", []int64{3, 3, 128}}, {"knary", []int64{3, 4, 256}},
	{"knary", []int64{4, 2, 512}}, {"knary", []int64{4, 3, 1024}},
}

// genJobs draws the `jobs` workload's job list from seed: blocks of the
// whole mix, each block in its own seeded order. Every run over whole
// blocks therefore sees the same mix, whatever the seed, and only the
// order (and the workers' seeds) change with it.
func genJobs(seed int64, blocks int) []Input {
	r := rand.New(rand.NewSource(seed))
	out := make([]Input, 0, blocks*len(jobMix))
	for b := 0; b < blocks; b++ {
		for _, i := range r.Perm(len(jobMix)) {
			out = append(out, jobMix[i])
		}
	}
	return out
}
