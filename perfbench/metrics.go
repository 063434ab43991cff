package main

import (
	"math"
	"time"

	"phish/internal/stats"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric, its unit, which direction is better, and —
// for a per-layer metric — the end-to-end metrics and workloads it should
// move, which `perfbench describe` prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
}

// endToEnd is measured with tracing off, on every workload.
var endToEnd = []metricDef{
	{"job_cpu_ratio", "ratio", "lower", ""},
	{"strata_ratio", "ratio", "lower", ""},
	{"serial_slowdown", "ratio", "lower", ""},
	{"speedup_p2", "ratio", "higher", ""},
	{"setup_s", "s", "lower", ""},
	{"max_rss_mb", "MB", "lower", ""},
}

// perLayer is measured by the traced run (--trace 1), on every workload.
var perLayer = []metricDef{
	{"core.task_ns", "ns", "lower", "strata_ratio and job_cpu_ratio on fib, less on jobs"},
	{"core.tasks_executed", "count", "lower", "context for failures, all workloads"},
	{"core.tasks_overcount", "count", "lower", "context for failures, all workloads (per Phish job)"},
	{"core.steal_attempts", "count", "lower", "speedup_p2 on fib and jobs; bench.job_ms_p50 on jobs"},
	{"core.steals", "count", "lower", "speedup_p2 on fib and jobs; bench.job_ms_p50 on jobs"},
	{"core.steal_success", "ratio", "higher", "speedup_p2 on fib and jobs; bench.job_ms_p50 on jobs"},
	{"core.nonlocal_synchs", "count", "lower", "speedup_p2 on fib and jobs; bench.job_ms_p50 on jobs"},
	{"core.max_tasks_in_use", "count", "lower", "speedup_p2 on fib and jobs; bench.job_ms_p50 on jobs"},
	{"core.release_ms_p50", "ms", "lower", "bench.cycle_ms_p50 on jobs"},
	{"core.release_ms_p99", "ms", "lower", "bench.cycle_ms_p50 and bench.jobs_per_s on jobs"},
	{"core.steal_rtt_us_p50", "us", "lower", "bench.job_ms_p50 on jobs"},
	{"core.steal_rtt_us_p99", "us", "lower", "bench.job_ms_p50 on jobs"},
	{"core.steal_self_us_p50", "us", "lower", "bench.job_ms_p50 on jobs: the steal RTT outside the victim (both transits)"},
	{"core.victim_service_us_p50", "us", "lower", "bench.job_ms_p50 on jobs; bound by task grain on fib"},
	{"core.victim_service_us_p99", "us", "lower", "bench.job_ms_p50 on jobs; bound by task grain on fib"},
	{"core.first_steal_ms", "ms", "lower", "bench.job_ms_p50 on jobs"},
	{"deque.push_pop_ns", "ns", "lower", "strata_ratio and job_cpu_ratio on fib, within their share of core.task_ns"},
	{"deque.push_steal_ns", "ns", "lower", "strata_ratio and job_cpu_ratio on fib, within their share of core.task_ns"},
	{"wire.arg_encode_ns", "ns", "lower", "job_cpu_ratio on jobs only; no change on fib"},
	{"wire.arg_decode_ns", "ns", "lower", "job_cpu_ratio on jobs only; no change on fib"},
	{"wire.steal_seq_ns", "ns", "lower", "job_cpu_ratio on jobs only; no change on fib"},
	{"wire.steal_seq_allocs", "allocs", "lower", "job_cpu_ratio on jobs only; no change on fib"},
	{"phishnet.send_ns_p50", "ns", "lower", "job_cpu_ratio and bench.job_ms_p50 on jobs"},
	{"phishnet.transit_us_p50", "us", "lower", "bench.job_ms_p50 on jobs"},
	{"phishnet.transit_us_p99", "us", "lower", "bench.job_ms_p50 on jobs"},
	{"phishnet.msgs_per_job", "count", "lower", "job_cpu_ratio and bench.job_ms_p50 on jobs"},
	{"phishnet.retransmits", "count", "lower", "job_cpu_ratio and bench.job_ms_p50 on jobs (per Phish job)"},
	{"clearinghouse.register_us_p50", "us", "lower", "bench.job_ms_p50 on jobs; setup_s"},
	{"clearinghouse.register_us_p99", "us", "lower", "bench.job_ms_p50 on jobs; setup_s"},
	{"clearinghouse.result_us", "us", "lower", "bench.job_ms_p50 on jobs; setup_s"},
	{"clearinghouse.msgs_per_job", "count", "lower", "job_cpu_ratio on jobs; setup_s"},
	{"strata.task_ns", "ns", "lower", "none: reference a Phish change must not move (machine drift)"},
	{"apps.serial_ms", "ms", "lower", "none: reference a Phish change must not move (machine drift)"},
	{"bench.trace_overhead", "ratio", "lower", "none: traced over untraced bench.job_ms_p50"},
	{"bench.jobs_per_s", "1/s", "higher", "completed primary jobs per second of job cycles, release tails included"},
	{"bench.job_ms_p50", "ms", "lower", "job wall time, launch to root result (untraced half)"},
	{"bench.cycle_ms_p50", "ms", "lower", "job wall time, launch to every worker exited (untraced half)"},
	{"bench.job_ms_p99", "ms", "lower", "tail of the job wall times (traced half)"},
	{"bench.jobs_timed", "count", "higher", "sample count behind the job percentiles"},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// finite maps NaN and infinities (an empty sample) to 0 so the result
// stays valid JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// endToEndMetrics computes the end-to-end metrics from untraced rounds.
// Every metric but setup_s and max_rss_mb is a ratio of two runs of the
// same round, taken per round, reduced to a median per input, and combined
// across inputs by geometric mean: the jobs workload mixes inputs whose
// ratios differ by orders of magnitude, and a median straight across them
// falls in the gap between groups, where it jumps from run to run. With one
// input (fib) this is just the median.
//
// No wall time is an end-to-end metric. On a shared host, Phish's wall
// times move by a quarter or more between runs of the same code as the
// neighbours' load comes and goes (fib(24) at P=1: 144 to 184 ms over five
// runs of one build), while a ratio to a run made moments earlier on the
// same CPUs cancels it. The wall times are per-layer metrics
// (bench.job_ms_p50, bench.cycle_ms_p50, bench.job_ms_p99).
func endToEndMetrics(rounds []round, setupS, rssMB float64) map[string]float64 {
	return map[string]float64{
		"job_cpu_ratio": perInput(rounds, func(rd *round) (float64, bool) {
			if rd.strata == nil {
				return 0, false
			}
			return float64(rd.p1.CPU) / float64(rd.strataCPU), true
		}),
		"strata_ratio": perInput(rounds, func(rd *round) (float64, bool) {
			if rd.strata == nil {
				return 0, false
			}
			return float64(rd.p1.work()) / float64(rd.strata.Totals.ExecTime), true
		}),
		"serial_slowdown": perInput(rounds, func(rd *round) (float64, bool) {
			return float64(rd.p1.work()) / rd.serialNS, true
		}),
		"speedup_p2": perInput(rounds, func(rd *round) (float64, bool) {
			return 2 * float64(rd.p1.work()) / float64(rd.p2.work()), true
		}),
		"setup_s":    setupS,
		"max_rss_mb": rssMB,
	}
}

func wallMS(rd *round) (float64, bool)  { return ms(rd.primary().Wall), true }
func cycleMS(rd *round) (float64, bool) { return ms(rd.primary().Cycle), true }

// perInput is the geometric mean, over the distinct inputs of rounds, of
// the median of f over each input's rounds; rounds where f reports false
// are skipped.
func perInput(rounds []round, f func(rd *round) (float64, bool)) float64 {
	by := make(map[string][]float64)
	for i := range rounds {
		if v, ok := f(&rounds[i]); ok {
			k := rounds[i].in.String()
			by[k] = append(by[k], v)
		}
	}
	var logs float64
	for _, vs := range by {
		logs += math.Log(median(vs))
	}
	return math.Exp(logs / float64(len(by)))
}

// perLayerMetrics computes the per-layer metrics from the traced rounds,
// their recorder, the untraced rounds of the same run (for the tracing
// overhead) and the micro timings.
func perLayerMetrics(traced, untraced []round, rec *recorder, micro map[string]float64) map[string]float64 {
	m := make(map[string]float64)
	for k, v := range micro {
		m[k] = v
	}
	var executed, maxInUse, release []float64
	var cycleS float64
	var walls []float64
	var attempts, steals, nonlocal, overcount, msgs, chMsgs, retx float64
	for i := range traced {
		rd := &traced[i]
		p := rd.primary()
		walls = append(walls, ms(p.Wall))
		cycleS += p.Cycle.Seconds()
		executed = append(executed, float64(p.total(func(s stats.Snapshot) int64 { return s.TasksExecuted })))
		var mx int64
		for _, s := range p.Workers {
			mx = max(mx, s.MaxTasksInUse)
		}
		maxInUse = append(maxInUse, float64(mx))
		for _, d := range p.Release {
			release = append(release, ms(d))
		}
		msgs += float64(p.Msgs)
		chMsgs += float64(p.CHMsgs)

		t1 := rd.p1.total(func(s stats.Snapshot) int64 { return s.TasksExecuted })
		t2 := rd.p2.total(func(s stats.Snapshot) int64 { return s.TasksExecuted })
		attempts += float64(rd.p2.total(func(s stats.Snapshot) int64 { return s.StealAttempts }))
		steals += float64(rd.p2.total(func(s stats.Snapshot) int64 { return s.TasksStolen }))
		nonlocal += float64(rd.p2.total(func(s stats.Snapshot) int64 { return s.NonLocalSynchs }))
		retx += float64(rd.p1.Retx + rd.p2.Retx)
		if rd.strata != nil {
			dag := rd.strata.Totals.TasksExecuted
			overcount += float64(t1 + t2 - 2*dag)
		}
	}
	n := float64(len(traced))
	us := func(name string, q float64) float64 { return quantile(rec.durations(name), q) / 1e3 }

	m["core.task_ns"] = perInput(traced, func(rd *round) (float64, bool) {
		t1 := rd.p1.total(func(s stats.Snapshot) int64 { return s.TasksExecuted })
		return (float64(rd.p1.work()) - rd.serialNS) / float64(t1), true
	})
	m["core.tasks_executed"] = median(executed)
	m["core.tasks_overcount"] = overcount / (2 * n)
	m["core.steal_attempts"] = attempts / n
	m["core.steals"] = steals / n
	m["core.steal_success"] = steals / attempts
	m["core.nonlocal_synchs"] = nonlocal / n
	m["core.max_tasks_in_use"] = median(maxInUse)
	m["core.release_ms_p50"] = quantile(release, 0.5)
	m["core.release_ms_p99"] = quantile(release, 0.99)
	m["core.steal_rtt_us_p50"] = us(spSteal, 0.5)
	m["core.steal_rtt_us_p99"] = us(spSteal, 0.99)
	m["core.steal_self_us_p50"] = quantile(rec.selfTimes(spSteal), 0.5) / 1e3
	m["core.victim_service_us_p50"] = us(spService, 0.5)
	m["core.victim_service_us_p99"] = us(spService, 0.99)
	m["core.first_steal_ms"] = us(spFirstSteal, 0.5) / 1e3
	m["phishnet.send_ns_p50"] = us(spSend, 0.5) * 1e3
	m["phishnet.transit_us_p50"] = us(spTransit, 0.5)
	m["phishnet.transit_us_p99"] = us(spTransit, 0.99)
	m["phishnet.msgs_per_job"] = msgs / n
	m["phishnet.retransmits"] = retx / (2 * n)
	m["clearinghouse.register_us_p50"] = us(spRegister, 0.5)
	m["clearinghouse.register_us_p99"] = us(spRegister, 0.99)
	m["clearinghouse.result_us"] = us(spResult, 0.5)
	m["clearinghouse.msgs_per_job"] = chMsgs / n
	m["strata.task_ns"] = perInput(traced, func(rd *round) (float64, bool) {
		if rd.strata == nil {
			return 0, false
		}
		return float64(rd.strata.Totals.ExecTime) / float64(rd.strata.Totals.TasksExecuted), true
	})
	m["apps.serial_ms"] = perInput(traced, func(rd *round) (float64, bool) { return rd.serialNS / 1e6, true })
	m["bench.trace_overhead"] = perInput(traced, wallMS) / perInput(untraced, wallMS)
	m["bench.job_ms_p50"] = perInput(untraced, wallMS)
	m["bench.cycle_ms_p50"] = perInput(untraced, cycleMS)
	m["bench.jobs_per_s"] = n / cycleS
	m["bench.job_ms_p99"] = quantile(walls, 0.99)
	m["bench.jobs_timed"] = n
	return m
}
