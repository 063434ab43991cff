package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"phish"
	"phish/internal/apps/pfold"
	"phish/internal/telemetry"
	"phish/internal/types"
	"phish/internal/wire"
)

// WireBenchResult is one codec micro-benchmark measurement, written to
// BENCH_wire.json so successive PRs have a perf trajectory to compare
// against.
type WireBenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// wireBenchArg mirrors the Arg envelope of the wire benchmarks: the
// smallest hot-path message (one synchronization).
func wireBenchArg() *wire.Envelope {
	return &wire.Envelope{
		Job: 1, From: 2, To: 3, Seq: 99,
		Payload: wire.Arg{
			Cont: types.Continuation{Task: types.TaskID{Worker: 1, Seq: 12345}, Slot: 1},
			Val:  int64(42),
		},
	}
}

// wireBenchSteal mirrors the stolen-closure envelope: a data-carrying
// steal reply.
func wireBenchSteal() *wire.Envelope {
	return &wire.Envelope{
		Job: 1, From: 2, To: 3, Seq: 100,
		Payload: wire.StealReply{OK: true, Task: wire.Closure{
			ID:   types.TaskID{Worker: 2, Seq: 7},
			Fn:   "pfold",
			Args: []types.Value{int64(18), "hphpphhpph", []int64{1, 2, 3, 4, 5, 6, 7, 8}, float64(0.5)},
			Cont: types.Continuation{Task: types.TaskID{Worker: 3, Seq: 9}, Slot: 0},
		}},
	}
}

// stealSequence is the four messages of one steal round trip.
func stealSequence() []*wire.Envelope {
	return []*wire.Envelope{
		{Job: 1, From: 3, To: 2, Seq: 1, Payload: wire.StealRequest{Thief: 3}},
		wireBenchSteal(),
		{Job: 1, From: 3, To: 2, Seq: 2, Payload: wire.StealConfirm{Record: types.TaskID{Worker: 2, Seq: 7}}},
		{Job: 1, From: 3, To: 2, Seq: 3, Payload: wire.Arg{
			Cont: types.Continuation{Task: types.TaskID{Worker: 2, Seq: 7}}, Val: int64(8)}},
	}
}

// runStealSequenceView is one iteration of the production steal path:
// encode each of the four messages, parse it back as a zero-copy view, and
// touch every field a worker's ingest reads — the stolen closure's args
// landing in the caller's reused scratch slice, exactly like adoption onto
// a pooled closure. Shared by WireBench and the crit gate so both measure
// the same path.
func runStealSequenceView(b *testing.B, seq []*wire.Envelope, scratch *[]types.Value) {
	for _, env := range seq {
		f, err := wire.EncodeFrame(env)
		if err != nil {
			b.Fatal(err)
		}
		decoded, err := wire.DecodeView(f.Bytes(), nil)
		if err != nil {
			b.Fatal(err)
		}
		v, ok := decoded.Payload.(*wire.View)
		if !ok {
			b.Fatalf("hot payload decoded as %T, not a view", decoded.Payload)
		}
		if sr, ok := v.AsStealRequest(); ok {
			_ = sr.Thief()
		} else if rp, ok := v.AsStealReply(); ok {
			cl := rp.Task()
			_, _, _ = cl.ID(), cl.Fn(), cl.Cont()
			_, _, _ = cl.Missing(), cl.NoSteal(), cl.TC()
			*scratch, err = cl.AppendArgs((*scratch)[:0])
			if err != nil {
				b.Fatal(err)
			}
		} else if sc, ok := v.AsStealConfirm(); ok {
			_ = sc.Record()
		} else if av, ok := v.AsArg(); ok {
			if _, err := av.Val(); err != nil {
				b.Fatal(err)
			}
			_, _, _ = av.Cont(), av.Crossed(), av.TC()
		}
		decoded.Free()
		f.Free()
	}
}

// WireBench measures the wire codec and steal-path serialization costs:
// encode and decode of the hot messages, and the four-message steal
// sequence read in place as views and materialized into owned structs.
func WireBench() []WireBenchResult {
	arg, steal, seq := wireBenchArg(), wireBenchSteal(), stealSequence()
	argFrame, _ := wire.Encode(arg)
	stealFrame, _ := wire.Encode(steal)

	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"encode-arg", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := wire.EncodeFrame(arg)
				if err != nil {
					b.Fatal(err)
				}
				f.Free()
			}
		}},
		{"decode-arg", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := wire.Decode(argFrame)
				if err != nil {
					b.Fatal(err)
				}
				env.Free()
			}
		}},
		{"encode-stolen-closure", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f, err := wire.EncodeFrame(steal)
				if err != nil {
					b.Fatal(err)
				}
				f.Free()
			}
		}},
		{"decode-stolen-closure", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env, err := wire.Decode(stealFrame)
				if err != nil {
					b.Fatal(err)
				}
				env.Free()
			}
		}},
		{"steal-sequence", func(b *testing.B) {
			// The production path: zero-copy views read in place.
			var scratch []types.Value
			for i := 0; i < b.N; i++ {
				runStealSequenceView(b, seq, &scratch)
			}
		}},
		{"steal-sequence-materialize", func(b *testing.B) {
			// Decode into owned structs (view plus Materialize), the path a
			// consumer takes when the data must outlive the frame.
			for i := 0; i < b.N; i++ {
				for _, env := range seq {
					f, err := wire.EncodeFrame(env)
					if err != nil {
						b.Fatal(err)
					}
					decoded, err := wire.Decode(f.Bytes())
					if err != nil {
						b.Fatal(err)
					}
					decoded.Free()
					f.Free()
				}
			}
		}},
	}

	out := make([]WireBenchResult, 0, len(cases))
	for _, c := range cases {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			c.fn(b)
		})
		out = append(out, WireBenchResult{
			Name:        c.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
	}
	return out
}

// StealSeqAllocBudget is the hard ceiling on steal-sequence allocs/op: the
// zero-copy steal path stays single-digit or the gate fails.
const StealSeqAllocBudget = 10

// CheckWire gates CI on the codec's allocation profile: the fresh
// steal-sequence measurement must exist and stay under the hard
// single-digit budget, and no row present in both the fresh run and the
// recorded BENCH_wire.json baseline may allocate more than the baseline
// (base nil skips the comparison — no baseline yet). ns/op is recorded
// for the trajectory but not gated; shared CI machines make timing gates
// flaky where alloc counts are exact.
func CheckWire(base, fresh []WireBenchResult) error {
	recorded := make(map[string]int64, len(base))
	for _, wb := range base {
		recorded[wb.Name] = wb.AllocsPerOp
	}
	var seq *WireBenchResult
	var errs []error
	for i := range fresh {
		r := &fresh[i]
		if r.Name == "steal-sequence" {
			seq = r
		}
		if want, ok := recorded[r.Name]; ok && r.AllocsPerOp > want {
			errs = append(errs, fmt.Errorf("harness: %s allocs %d exceed the recorded %d baseline",
				r.Name, r.AllocsPerOp, want))
		}
	}
	if seq == nil {
		return fmt.Errorf("harness: wirebench produced no steal-sequence measurement")
	}
	if seq.AllocsPerOp >= StealSeqAllocBudget {
		errs = append(errs, fmt.Errorf("harness: steal-sequence allocs %d, budget < %d — the zero-copy steal path regressed",
			seq.AllocsPerOp, StealSeqAllocBudget))
	}
	return errors.Join(errs...)
}

// PrintWireBench renders the measurements as a table.
func PrintWireBench(w io.Writer, rs []WireBenchResult) {
	fmt.Fprintf(w, "wire codec — hot messages and the steal sequence\n")
	fmt.Fprintf(w, "%-24s %14s %12s %12s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	for _, r := range rs {
		fmt.Fprintf(w, "%-24s %14.1f %12d %12d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
}

// WriteWireBenchJSON writes the measurements to path as JSON.
func WriteWireBenchJSON(path string, rs []WireBenchResult) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// SchedBenchResult is one scheduler throughput measurement: a pfold run
// with the telemetry plane on, reporting task throughput and the steal
// round-trip / task-execution quantiles from the latency histograms.
// Written to BENCH_sched.json so successive PRs have a scheduling-path
// perf trajectory next to the codec one.
type SchedBenchResult struct {
	Name         string  `json:"name"`
	Workers      int     `json:"workers"`
	Tasks        int64   `json:"tasks"`
	Steals       int64   `json:"steals"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	TasksPerSec  float64 `json:"tasks_per_sec"`
	StealRTTP50  int64   `json:"steal_rtt_p50_ns"`
	StealRTTP99  int64   `json:"steal_rtt_p99_ns"`
	TaskExecP50  int64   `json:"task_exec_p50_ns"`
	TaskExecP99  int64   `json:"task_exec_p99_ns"`
	StealSamples int64   `json:"steal_samples"`
}

// SchedBench runs o's pfold workload at each participant count with every
// worker instrumented (all sharing one histogram set, so the quantiles
// are cluster-wide).
func (o Options) SchedBench() ([]SchedBenchResult, error) {
	ps := append([]int(nil), o.Table2Ps...)
	if len(ps) == 0 {
		ps = []int{4, 8}
	}
	var out []SchedBenchResult
	for _, p := range ps {
		m := telemetry.NewMetrics()
		cfg := o.Workers
		if cfg == (phish.WorkerConfig{}) {
			cfg = phish.DefaultWorkerConfig()
		}
		cfg.Metrics = m
		res, err := phish.RunLocal(pfold.Program(), pfold.Root,
			pfold.RootArgs(o.PfoldN, o.PfoldThreshold),
			phish.LocalOptions{Workers: p, Config: cfg, Timeout: o.Timeout})
		if err != nil {
			return nil, fmt.Errorf("harness: schedbench P=%d: %w", p, err)
		}
		rtt := m.StealRTT().Snapshot()
		exec := m.TaskExec().Snapshot()
		out = append(out, SchedBenchResult{
			Name:         fmt.Sprintf("pfold-p%d", p),
			Workers:      p,
			Tasks:        res.Totals.TasksExecuted,
			Steals:       res.Totals.TasksStolen,
			ElapsedMS:    float64(res.Elapsed.Nanoseconds()) / 1e6,
			TasksPerSec:  float64(res.Totals.TasksExecuted) / res.Elapsed.Seconds(),
			StealRTTP50:  rtt.Quantile(0.5),
			StealRTTP99:  rtt.Quantile(0.99),
			TaskExecP50:  exec.Quantile(0.5),
			TaskExecP99:  exec.Quantile(0.99),
			StealSamples: rtt.Count,
		})
	}
	return out, nil
}

// PrintSchedBench renders the measurements as a table.
func PrintSchedBench(w io.Writer, rs []SchedBenchResult) {
	fmt.Fprintf(w, "scheduler — throughput and latency quantiles (telemetry on)\n")
	fmt.Fprintf(w, "%-12s %10s %10s %12s %14s %14s %14s\n",
		"benchmark", "tasks", "steals", "tasks/sec", "stealRTT p50", "stealRTT p99", "exec p99")
	for _, r := range rs {
		fmt.Fprintf(w, "%-12s %10d %10d %12.0f %14v %14v %14v\n",
			r.Name, r.Tasks, r.Steals, r.TasksPerSec,
			time.Duration(r.StealRTTP50), time.Duration(r.StealRTTP99), time.Duration(r.TaskExecP99))
	}
}
