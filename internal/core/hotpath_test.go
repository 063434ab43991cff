package core

import (
	"testing"
	"time"

	"phish/internal/model"
	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// runFresh executes one fresh, unpreempted task of fn on w.
func runFresh(w *Worker, fn string) {
	cl := w.newClosure()
	cl.ID = w.nextTaskID()
	cl.Fn = fn
	w.counters.TaskCreated()
	w.execute(cl)
}

func TestExecTimingWarmsThenSamples(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	for i := 0; i < execWarmup; i++ {
		runFresh(w, "noop")
	}
	fe := w.fnCache["noop"]
	if fe.exec.n != execWarmup || !fe.exec.warm() {
		t.Fatalf("track has %d samples after %d runs, want warm", fe.exec.n, execWarmup)
	}
	if got := w.counters.TasksTimed.Load(); got != execWarmup {
		t.Fatalf("timed %d of the %d warm-up runs, want all", got, execWarmup)
	}
	if fe.exec.mean >= coarseExecNS {
		t.Skipf("noop body measured %v; this machine makes it coarse", time.Duration(fe.exec.mean))
	}
	for i := 0; i < 3*execSampleEvery; i++ {
		runFresh(w, "noop")
	}
	if got := w.counters.TasksTimed.Load() - execWarmup; got != 3 {
		t.Errorf("timed %d of %d warm fine-grained runs, want 3", got, 3*execSampleEvery)
	}
	if got := fe.exec.n; got != execWarmup+3 {
		t.Errorf("track has %d samples, want %d (timed runs only)", got, execWarmup+3)
	}
	if got := w.counters.TasksExecuted.Load(); got != execWarmup+3*execSampleEvery {
		t.Errorf("executed %d, want every run counted", got)
	}
}

func TestExecTimingCoarseFnTimedEveryRun(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	w.prog.Register("coarse", func(c model.Ctx) {
		for t0 := time.Now(); time.Since(t0) < 2*coarseExecNS; {
		}
	})
	const runs = execWarmup + 2*execSampleEvery
	for i := 0; i < runs; i++ {
		runFresh(w, "coarse")
	}
	if got := w.counters.TasksTimed.Load(); got != runs {
		t.Errorf("timed %d of %d coarse runs, want all", got, runs)
	}
	if got := w.fnCache["coarse"].exec.n; got != runs {
		t.Errorf("track has %d samples, want %d", got, runs)
	}
}

// TestExecTimingPreemptedAttemptAllOrNothing preempts one attempt at a
// Yield and resumes it: the speculation track gets the summed slices once
// when the attempt is timed, and nothing when it is not.
func TestExecTimingPreemptedAttemptAllOrNothing(t *testing.T) {
	const slice = 2 * time.Millisecond
	for _, timed := range []bool{false, true} {
		w, _ := newTestWorker(t, 5)
		w.prog.Register("twoslice", func(c model.Ctx) {
			time.Sleep(slice)
			if c.Checkpoint() == nil && c.Yield([]byte{1}) {
				return
			}
			c.Return(int64(1))
		})
		// A warm track with a fine mean: the sampling rule alone decides.
		fe := w.lookupFn("twoslice")
		fe.exec = execStats{mean: 100, n: execWarmup}
		if timed {
			fe.skips = execSampleEvery - 1
		}

		cl := w.newClosure()
		cl.ID = w.nextTaskID()
		cl.Fn = "twoslice"
		w.counters.TaskCreated()
		w.drainReq.Store(true) // the Yield preempts
		w.execute(cl)
		w.drainReq.Store(false)
		if !cl.preempted {
			t.Fatal("first slice was not preempted")
		}
		if cl.timed != timed {
			t.Fatalf("attempt timed = %v, want %v", cl.timed, timed)
		}
		if fe.exec.n != execWarmup {
			t.Fatalf("a preempted slice fed the track")
		}
		next, ok := w.popNext()
		if !ok || next != cl {
			t.Fatal("preempted closure not requeued at the head")
		}
		w.execute(cl) // resume: same attempt, completes

		s := w.Stats()
		if s.TasksExecuted != 1 || s.CkptResumes != 0 || s.TasksPreempted != 1 {
			t.Errorf("timed=%v: executed %d, resumes %d, preempted %d; want one attempt, no resume",
				timed, s.TasksExecuted, s.CkptResumes, s.TasksPreempted)
		}
		if !timed {
			if fe.exec.n != execWarmup || s.TasksTimed != 0 {
				t.Errorf("untimed attempt fed the track (n=%d) or the counter (%d)", fe.exec.n, s.TasksTimed)
			}
			continue
		}
		if fe.exec.n != execWarmup+1 || s.TasksTimed != 1 {
			t.Fatalf("timed attempt fed the track %d times, counter %d; want once",
				fe.exec.n-execWarmup, s.TasksTimed)
		}
		// One EWMA step from mean 100 ns toward the sample: the sample is
		// both slices summed, so it is at least 2×slice.
		if sample := 100 + (fe.exec.mean-100)/0.2; sample < float64(2*slice) {
			t.Errorf("track fed %v, want the summed slices (≥ %v)", time.Duration(sample), 2*slice)
		}
	}
}

// TestResumeAfterStealCountsOnce: a closure preempted at a Yield and then
// stolen resumes on the thief from its checkpoint, which counts as a
// resume, not a second execution.
func TestResumeAfterStealCountsOnce(t *testing.T) {
	w, _ := newTestWorker(t, 6)
	cl := w.closureFromWire(wire.Closure{ID: types.TaskID{Worker: 5, Seq: 3}, Fn: "noop",
		Ckpt: []byte{1}, CkptSeq: 1})
	w.counters.TaskAdopted()
	w.execute(cl)
	if s := w.Stats(); s.TasksExecuted != 0 || s.CkptResumes != 1 {
		t.Errorf("executed %d, resumes %d; want 0 and 1", s.TasksExecuted, s.CkptResumes)
	}
}

// queuedConn serves Recv from its own buffered channel, so a test can
// queue envelopes synchronously.
type queuedConn struct {
	phishnet.Conn
	ch chan *wire.Envelope
}

func (c queuedConn) Recv() <-chan *wire.Envelope { return c.ch }

// TestDrainAllWakeTokenBeforeMailbox: with a wake token and an envelope
// both pending, drainAll consumes the token and returns so the loop sees
// the control request first; the envelope stays queued for the next poll.
func TestDrainAllWakeTokenBeforeMailbox(t *testing.T) {
	w, _ := newTestWorker(t, 5)
	qc := queuedConn{Conn: w.conn, ch: make(chan *wire.Envelope, 1)}
	w.conn = qc
	w.wake()
	qc.ch <- &wire.Envelope{Job: 1, From: 6, To: 5, Payload: wire.StayReply{Stay: true}}

	w.drainAll()
	if len(w.wakeCh) != 0 {
		t.Fatal("wake token not consumed")
	}
	if got := w.counters.MessagesReceived.Load(); got != 0 {
		t.Fatalf("drain handled %d message(s) past a wake token, want 0", got)
	}
	if len(qc.ch) != 1 {
		t.Fatal("queued envelope lost")
	}
	w.drainAll()
	if got := w.counters.MessagesReceived.Load(); got != 1 || len(qc.ch) != 0 {
		t.Errorf("next drain handled %d message(s), %d left queued; want 1, 0", got, len(qc.ch))
	}
}
