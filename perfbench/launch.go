package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"phish/internal/clearinghouse"
	"phish/internal/clock"
	"phish/internal/core"
	"phish/internal/phishnet"
	"phish/internal/stats"
	"phish/internal/types"
	"phish/internal/wire"
)

// jobTimeout bounds one job's wait for its root result, and separately
// its workers' release; a job past either counts as failed.
const jobTimeout = 20 * time.Second

// outcome is what one Phish job measured.
type outcome struct {
	Value   types.Value
	Err     error
	Wall    time.Duration   // launch → root result
	Cycle   time.Duration   // launch → every worker's Run returned
	CPU     time.Duration   // process CPU time over Cycle, every thread
	Release []time.Duration // root result → each worker's Run returned
	Workers []stats.Snapshot
	CHMsgs  int64 // clearinghouse messages sent plus received
	Msgs    int64 // messages every endpoint sent (traced runs only)
	Retx    int64 // transport retransmits (traced runs only)
}

// work is the job's total execution time: the sum over participants of
// each worker's ExecTime, the denominator of the paper's speedup.
func (o *outcome) work() time.Duration {
	var t time.Duration
	for _, s := range o.Workers {
		t += s.ExecTime
	}
	return t
}

func (o *outcome) total(f func(s stats.Snapshot) int64) int64 {
	var n int64
	for _, s := range o.Workers {
		n += f(s)
	}
	return n
}

// runJob launches one job the way cmd/phish does: a clearinghouse on its
// own loopback UDP socket and p workers on theirs, each configured as
// cmd/phish configures its local workers. It returns once the root result
// is in and every worker has exited. With rec non-nil every endpoint's
// Conn is wrapped in rec's recorder.
func runJob(in Input, p int, job types.JobID, seed int64, rec *recorder) (o outcome) {
	start, cpu0 := time.Now(), processCPU()
	if rec != nil {
		rec.jobStarted(job)
		defer func() { o.Msgs = rec.finishJob(job) }()
	}
	var retx stats.Counters
	listen := func(id types.WorkerID) (phishnet.Conn, error) {
		u, err := phishnet.ListenUDP(job, id, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return u, nil
		}
		u.Instrument(&retx, nil, nil)
		return rec.wrap(u), nil
	}

	chConn, err := listen(types.ClearinghouseID)
	if err != nil {
		o.Err = err
		return o
	}
	defer chConn.Close()
	spec := wire.JobSpec{
		ID:       job,
		Name:     in.App,
		Program:  in.App,
		RootFn:   in.root(),
		RootArgs: in.rootArgs(),
		CHAddr:   chConn.LocalAddr(),
	}
	chCfg := clearinghouse.DefaultConfig()
	chCfg.Shards = 8
	chCfg.UpdateEvery = 15 * time.Second
	chCfg.HeartbeatTimeout = 30 * time.Second
	ch := clearinghouse.New(spec, chConn, chCfg)
	go ch.Run()
	defer ch.Stop()

	cfg := core.DefaultConfig()
	cfg.HeartbeatEvery = 5 * time.Second
	cfg.StealTimeout = time.Second
	cfg.StealBackoff = 5 * time.Millisecond
	cfg.Seed = seed
	prog := in.program()

	workers := make([]*core.Worker, 0, p)
	exited := make([]time.Time, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		conn, err := listen(types.WorkerID(i))
		if err != nil {
			o.Err = err
			break
		}
		conn.SetPeer(types.ClearinghouseID, chConn.LocalAddr())
		w := core.NewWorker(job, types.WorkerID(i), prog, conn, cfg, clock.System)
		workers = append(workers, w)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = w.Run()
			exited[i] = time.Now()
		}(i)
	}
	allExited := make(chan struct{})
	go func() {
		wg.Wait()
		close(allExited)
	}()

	if o.Err == nil {
		o.Value, o.Err = ch.WaitResult(jobTimeout)
	}
	resultAt := time.Now()
	o.Wall = resultAt.Sub(start)
	if rec != nil {
		rec.jobResult(job)
	}
	if o.Err != nil {
		for _, w := range workers {
			w.Crash()
		}
	}
	select {
	case <-allExited:
	case <-time.After(jobTimeout):
		for _, w := range workers {
			w.Crash()
		}
		o.Err = fmt.Errorf("job %d: workers not released after %v", job, jobTimeout)
		select {
		case <-allExited:
		case <-time.After(jobTimeout):
			return o // a worker ignored Crash; leave it rather than hang the run
		}
	}
	o.Cycle, o.CPU = time.Since(start), processCPU()-cpu0
	for i, w := range workers {
		o.Workers = append(o.Workers, w.Stats())
		o.Release = append(o.Release, exited[i].Sub(resultAt))
	}
	sent, recv := ch.Messages()
	o.CHMsgs = sent + recv
	o.Retx = retx.Retransmits.Load()
	return o
}

// processCPU is the CPU time every thread of this process has used. Unlike
// wall time it leaves out time the hypervisor gave the CPU to other guests,
// but it still grows when a busy host slows the CPU down, so the benchmark
// reports it only as a ratio to a run made moments earlier.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
