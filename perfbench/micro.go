package main

import (
	"flag"
	"testing"

	"phish/internal/deque"
	"phish/internal/types"
	"phish/internal/wire"
)

// sink keeps micro-benchmark results live so the compiler cannot drop
// the measured calls.
var sink any

// microTimings drives the public deque and wire APIs through
// testing.Benchmark and returns ns/op (and allocs/op for the steal
// sequence) keyed by per-layer metric name.
func microTimings() map[string]float64 {
	testing.Init()
	_ = flag.Set("test.benchtime", "300ms") // the flag exists once testing.Init has run
	m := make(map[string]float64)
	ns := func(name string, f func(b *testing.B)) testing.BenchmarkResult {
		r := testing.Benchmark(f)
		m[name] = float64(r.T.Nanoseconds()) / float64(r.N)
		return r
	}

	const depth = 64 // a deque this deep is already grown; ops then never allocate
	ns("deque.push_pop_ns", func(b *testing.B) {
		var d deque.Deque[int]
		total := 0
		for i := 0; i < b.N; i++ {
			d.PushHead(i)
			if d.Len() == depth {
				for !d.Empty() {
					v, _ := d.PopHead()
					total += v
				}
			}
		}
		sink = total
	})
	ns("deque.push_steal_ns", func(b *testing.B) {
		var d deque.Deque[int]
		total := 0
		for i := 0; i < b.N; i++ {
			d.PushHead(i)
			if d.Len() == depth {
				for !d.Empty() {
					v, _ := d.PopTail()
					total += v
				}
			}
		}
		sink = total
	})

	arg := &wire.Envelope{Job: 1, From: 2, To: 3, Seq: 99, Payload: wire.Arg{
		Cont: types.Continuation{Task: types.TaskID{Worker: 1, Seq: 12345}, Slot: 1},
		Val:  int64(42),
	}}
	ns("wire.arg_encode_ns", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = wire.AppendEncode(buf[:0], arg); err != nil {
				b.Fatal(err)
			}
		}
		sink = buf
	})
	frame, err := wire.AppendEncode(nil, arg)
	if err != nil {
		panic(err) // a fixed, valid envelope always encodes
	}
	ns("wire.arg_decode_ns", func(b *testing.B) {
		var scratch []types.Value
		for i := 0; i < b.N; i++ {
			touch(b, frame, &scratch)
		}
	})

	seq := stealSequence()
	r := ns("wire.steal_seq_ns", func(b *testing.B) {
		var buf []byte
		var scratch []types.Value
		for i := 0; i < b.N; i++ {
			for _, env := range seq {
				var err error
				if buf, err = wire.AppendEncode(buf[:0], env); err != nil {
					b.Fatal(err)
				}
				touch(b, buf, &scratch)
			}
		}
	})
	m["wire.steal_seq_allocs"] = float64(r.AllocsPerOp())
	return m
}

// touch decodes frame in place and reads every field a worker's ingest
// reads, then frees the envelope. A stolen closure's arguments land in
// the reused scratch slice, as they land on a pooled closure when a
// worker adopts a task.
func touch(b *testing.B, frame []byte, scratch *[]types.Value) {
	env, err := wire.DecodeView(frame, nil)
	if err != nil {
		b.Fatal(err)
	}
	v, ok := env.Payload.(*wire.View)
	if !ok {
		b.Fatalf("hot payload decoded as %T, not a view", env.Payload)
	}
	if sr, ok := v.AsStealRequest(); ok {
		_ = sr.Thief()
	} else if rp, ok := v.AsStealReply(); ok {
		cl := rp.Task()
		var err error
		if *scratch, err = cl.AppendArgs((*scratch)[:0]); err != nil {
			b.Fatal(err)
		}
		_, _, _ = cl.ID(), cl.Fn(), cl.Cont()
	} else if sc, ok := v.AsStealConfirm(); ok {
		_ = sc.Record()
	} else if av, ok := v.AsArg(); ok {
		val, err := av.Val()
		if err != nil {
			b.Fatal(err)
		}
		sink = val
		_ = av.Cont()
	}
	env.Free()
}

// stealSequence is the four messages of one successful steal: request,
// reply carrying a closure, confirm, and the result flowing back.
func stealSequence() []*wire.Envelope {
	rec := types.TaskID{Worker: 2, Seq: 7}
	return []*wire.Envelope{
		{Job: 1, From: 3, To: 2, Seq: 1, Payload: wire.StealRequest{Thief: 3}},
		{Job: 1, From: 2, To: 3, Seq: 1, Payload: wire.StealReply{OK: true, Task: wire.Closure{
			ID:   rec,
			Fn:   "pfold",
			Args: []types.Value{int64(17), int64(6), int64(0), []int64{1, 2, 3, 4, 5, 6, 7, 8}},
			Cont: types.Continuation{Task: types.TaskID{Worker: 2, Seq: 8}},
		}}},
		{Job: 1, From: 3, To: 2, Seq: 2, Payload: wire.StealConfirm{Record: rec}},
		{Job: 1, From: 3, To: 2, Seq: 3, Payload: wire.Arg{Cont: types.Continuation{Task: rec}, Val: int64(8)}},
	}
}
