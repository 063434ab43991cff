package core_test

import (
	"runtime"
	"testing"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// chainProgram is a pure spawn/execute/synch cycle with no fan-out noise:
// each chain task spawns one successor until n runs out.
func chainProgram() *core.Program {
	prog := core.NewProgram("chainbench")
	prog.Register("chain", func(c model.Ctx) {
		n := c.Int(0)
		if n == 0 {
			c.Return(int64(0))
			return
		}
		s := c.Successor("pass", 1)
		c.Spawn("chain", s.Cont(0), n-1)
	})
	prog.Register("pass", func(c model.Ctx) { c.Return(c.Int(0)) })
	return prog
}

// runChain runs a chain of n on one worker over the in-memory fabric and
// returns the worker's tasks executed and the time from start to result.
func runChain(tb testing.TB, prog *core.Program, n int64) (int64, time.Duration) {
	fab := phishnet.NewFabric()
	defer fab.Close()
	spec := wire.JobSpec{ID: 1, Name: "chainbench", Program: "chainbench",
		RootFn: "chain", RootArgs: []types.Value{n}}
	ch := clearinghouse.New(spec, fab.Attach(types.ClearinghouseID), clearinghouse.DefaultConfig())
	defer ch.Stop()
	go ch.Run()
	w := core.NewWorker(1, 0, prog, fab.Attach(0), core.DefaultConfig(), clock.System)
	done := make(chan struct{})
	go func() { _ = w.Run(); close(done) }()
	start := time.Now()
	if _, err := ch.WaitResult(2 * time.Minute); err != nil {
		tb.Fatal(err)
	}
	<-done
	return w.Stats().TasksExecuted, time.Since(start)
}

// BenchmarkTaskThroughput measures the end-to-end cost of one task under
// the full Phish runtime — spawn, deque, join, synchronization — which is
// the per-task overhead behind Table 1's slowdown numbers. Reported as
// ns/task.
func BenchmarkTaskThroughput(b *testing.B) {
	prog := chainProgram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tasks, elapsed := runChain(b, prog, 100000)
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(tasks), "ns/task")
	}
}

// TestTaskAllocsPerTask bounds heap allocations per task on the chain
// program, counted over the whole process for one cold job (set-up
// included). A chain step is two tasks and three unavoidable boxings (the
// spawned argument, the successor reference, the returned value), so the
// steady state is 1.5 allocations per task; a new per-task allocation
// would add at least 0.5. The count does not depend on the machine.
func TestTaskAllocsPerTask(t *testing.T) {
	prog := chainProgram()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tasks, _ := runChain(t, prog, 20000)
	runtime.ReadMemStats(&after)
	perTask := float64(after.Mallocs-before.Mallocs) / float64(tasks)
	t.Logf("%.2f allocs/task over %d tasks", perTask, tasks)
	if perTask > 1.8 {
		t.Errorf("%.2f allocs/task, want ≤ 1.8", perTask)
	}
}

// The per-cycle steal benchmark lives in steal_bench_test.go (package
// core): BenchmarkStealRoundTrip drives one request/grant/adopt/confirm
// cycle per iteration, with sub-benchmarks selecting the in-flight codec.
