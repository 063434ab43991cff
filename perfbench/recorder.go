package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"phish/internal/phishnet"
	"phish/internal/types"
	"phish/internal/wire"
)

// Span names. Every span belongs to one job and, except the job span
// itself, has the job span (or, for a victim's service span, the thief's
// steal span) as its parent.
const (
	spJob        = "job"         // launch → root result returned by WaitResult
	spSend       = "send"        // one Conn.Send call
	spTransit    = "transit"     // Send called → envelope delivered to the peer's consumer
	spSteal      = "steal"       // thief sends StealRequest → thief receives StealReply
	spService    = "service"     // victim receives StealRequest → victim sends StealReply
	spFirstSteal = "first_steal" // launch → first successful StealReply delivered
	spRegister   = "register"    // Register sent → RegisterReply delivered
	spResult     = "result"      // root result sent to the clearinghouse → WaitResult returns
)

// span is one recorded interval, in nanoseconds since the recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a job span
	Job    int64  `json:"job"`
}

type msgKey struct {
	from, to types.WorkerID
	seq      uint64
}

// jobMarks is the recorder's lookup state for one job in flight.
type jobMarks struct {
	span       int   // index of the job span
	launch     int64 // job span start
	sends      int64 // messages sent by any endpoint
	firstSteal bool
	resultSent int64 // when the root result left for the clearinghouse

	sent     map[msgKey]int64            // send stamps awaiting delivery
	steals   map[types.WorkerID]int      // a thief's open steal span
	services map[types.WorkerID][2]int64 // per thief: request delivery stamp at the victim, parent span
	regs     map[types.WorkerID]int64    // a worker's Register send stamp
}

// recorder stamps every Send and every delivery on the Conns it wraps and
// keeps the resulting spans in memory. It sits outside the runtime: it
// sees only what crosses the phishnet.Conn interface, so the program under
// test carries no tracing code of the benchmark's.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	jobs  map[types.JobID]*jobMarks
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), jobs: make(map[types.JobID]*jobMarks)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) addLocked(s span) int {
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// jobStarted opens job's span at launch.
func (r *recorder) jobStarted(job types.JobID) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[job] = &jobMarks{
		span:     r.addLocked(span{Name: spJob, Start: t, Parent: -1, Job: int64(job)}),
		launch:   t,
		sent:     make(map[msgKey]int64),
		steals:   make(map[types.WorkerID]int),
		services: make(map[types.WorkerID][2]int64),
		regs:     make(map[types.WorkerID]int64),
	}
}

// jobResult closes job's span when WaitResult returns and records the
// clearinghouse's share of the wait.
func (r *recorder) jobResult(job types.JobID) {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.jobs[job]; m != nil {
		r.spans[m.span].End = t
		if m.resultSent > 0 {
			r.addLocked(span{Name: spResult, Start: m.resultSent, End: t, Parent: m.span, Job: int64(job)})
		}
	}
}

// finishJob drops job's lookup state once the job is over and returns the
// messages its endpoints sent; its spans stay.
func (r *recorder) finishJob(job types.JobID) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.jobs[job]
	delete(r.jobs, job)
	if m == nil {
		return 0
	}
	return m.sends
}

func (r *recorder) onSend(env *wire.Envelope, t0, t1 int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.jobs[env.Job]
	if m == nil {
		return
	}
	job := int64(env.Job)
	m.sends++
	r.addLocked(span{Name: spSend, Start: t0, End: t1, Parent: m.span, Job: job})
	m.sent[msgKey{env.From, env.To, env.Seq}] = t0
	switch env.Payload.(type) {
	case wire.StealRequest:
		m.steals[env.From] = r.addLocked(span{Name: spSteal, Start: t0, Parent: m.span, Job: job})
	case wire.StealReply:
		if s, ok := m.services[env.To]; ok {
			r.addLocked(span{Name: spService, Start: s[0], End: t0, Parent: int(s[1]), Job: job})
			delete(m.services, env.To)
		}
	case wire.Register:
		m.regs[env.From] = t0
	case wire.Arg:
		if env.To == types.ClearinghouseID {
			m.resultSent = t0
		}
	}
}

func (r *recorder) onDeliver(env *wire.Envelope, t int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.jobs[env.Job]
	if m == nil {
		return
	}
	job := int64(env.Job)
	k := msgKey{env.From, env.To, env.Seq}
	if t0, ok := m.sent[k]; ok {
		r.addLocked(span{Name: spTransit, Start: t0, End: t, Parent: m.span, Job: job})
		delete(m.sent, k)
	}
	switch env.PayloadName() {
	case "StealRequest":
		parent := m.span
		if i, ok := m.steals[env.From]; ok {
			parent = i
		}
		m.services[env.From] = [2]int64{t, int64(parent)}
	case "StealReply":
		if i, ok := m.steals[env.To]; ok {
			r.spans[i].End = t
			delete(m.steals, env.To)
		}
		if !m.firstSteal && stealGranted(env) {
			m.firstSteal = true
			r.addLocked(span{Name: spFirstSteal, Start: m.launch, End: t, Parent: m.span, Job: job})
		}
	case "RegisterReply":
		if t0, ok := m.regs[env.To]; ok {
			r.addLocked(span{Name: spRegister, Start: t0, End: t, Parent: m.span, Job: job})
			delete(m.regs, env.To)
		}
	}
}

func stealGranted(env *wire.Envelope) bool {
	switch p := env.Payload.(type) {
	case wire.StealReply:
		return p.OK
	case *wire.View:
		sr, ok := p.AsStealReply()
		return ok && sr.OK()
	}
	return false
}

// durations returns the durations of every completed span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns, for every completed span named name, its duration
// minus the part covered by its completed children. Children of one span
// never overlap (a thief has one steal outstanding), so their durations
// add up.
func (r *recorder) selfTimes(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 && s.End > 0 && r.spans[s.Parent].Name == name {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start-covered[i]))
		}
	}
	return out
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// tracedConn wraps one endpoint's phishnet.Conn: Send is timed and
// stamped, and every inbound envelope is stamped by a forwarding goroutine
// on its way to the consumer.
type tracedConn struct {
	phishnet.Conn
	rec  *recorder
	out  chan *wire.Envelope
	stop chan struct{}
	once sync.Once
	done sync.WaitGroup
}

func (r *recorder) wrap(c phishnet.Conn) *tracedConn {
	tc := &tracedConn{Conn: c, rec: r, out: make(chan *wire.Envelope), stop: make(chan struct{})}
	tc.done.Add(1)
	go tc.forward()
	return tc
}

func (c *tracedConn) forward() {
	defer c.done.Done()
	defer close(c.out)
	for env := range c.Conn.Recv() {
		c.rec.onDeliver(env, c.rec.now())
		select {
		case c.out <- env:
		case <-c.stop:
			env.Free()
			return
		}
	}
}

func (c *tracedConn) Send(env *wire.Envelope) error {
	t0 := c.rec.now()
	err := c.Conn.Send(env)
	if err == nil {
		c.rec.onSend(env, t0, c.rec.now())
	}
	return err
}

func (c *tracedConn) Recv() <-chan *wire.Envelope { return c.out }

// Close closes the wrapped Conn and waits for the forwarder to exit.
func (c *tracedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.stop) })
	c.done.Wait()
	return err
}
