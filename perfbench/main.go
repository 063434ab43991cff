// Command perfbench is the repository's benchmark. It launches Phish jobs
// the way cmd/phish does — a clearinghouse and P workers, each on its own
// loopback UDP socket — so the deployed codec and transport are in the
// path, checks every answer against the application's serial reference,
// and reports the paper's end-to-end metrics (Table 1's Phish/Strata and
// serial ratios, Figure 5's speedup) and a job's whole CPU cost over
// Strata's. Job wall times are per-layer metrics of a traced run, which
// also wraps every endpoint's Conn in a recorder and reports per-layer
// numbers.
//
// Run from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fib|jobs --seed N --seconds S --trace 0|1 [--out results.jsonl]
//	perfbench suite --seeds 1-10 --out results.jsonl
//	perfbench compare [--spec BENCHMARK.json] base.jsonl change.jsonl
//	perfbench describe
//
// The last line a run prints is one JSON object: correct, attempted,
// failed, and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1), each with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupRepeats is how many cold set-ups a run times, each in a fresh
// process; setup_s is their median.
const setupRepeats = 5

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored in a result set (one JSON object per line).
type record struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
}

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "suite":
			err = suiteMain(os.Args[2:])
		case "compare":
			err = compareMain(os.Args[2:], os.Stdout)
		case "describe":
			describe()
		case "setup":
			err = setupMain(os.Args[2:])
		default:
			err = runMain(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 | suite | compare | describe")
	os.Exit(2)
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fib or jobs")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 0, "length of the measured window (BENCHMARK.json run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", "", "also append this run's record to a result-set file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	prov := newProvenance(w.name, *seed, *seconds, *trace == 1)
	steal0, stealOK := stealTicks()
	start := time.Now()
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		return err
	}
	prov.StealPct = -1
	if steal1, ok := stealTicks(); ok && stealOK {
		prov.StealPct = stealPct(steal1-steal0, time.Since(start))
	}
	pj, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Printf("provenance %s\n", pj)
	if *out != "" {
		if err := appendRecord(*out, record{prov, res}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run times setupRepeats cold set-ups, sets up itself, then measures the
// workload for d. Untraced, it reports the end-to-end metrics. Traced, it
// spends half of d untraced (the baseline for the tracing overhead) and
// half traced, then adds the micro timings, and reports the per-layer
// metrics.
func run(w workload, seed int64, d time.Duration, traced bool) (result, error) {
	rn := newRunner(w, seed)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		s, err := coldSetup(rn)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	rn.setup()
	runtime.GC()

	var values map[string]float64
	var defs []metricDef
	if !traced {
		rounds := rn.runFor(d, nil)
		values = endToEndMetrics(rounds, median(setups), maxRSSMB())
		defs = endToEnd
	} else {
		plain := rn.runFor(d/2, nil)
		rec := newRecorder()
		rounds := rn.runFor(d/2, rec)
		values = perLayerMetrics(rounds, plain, rec, microTimings())
		defs = perLayer
		if err := writeSpans(rec, w.name, seed); err != nil {
			return result{}, err
		}
	}

	res := result{Attempted: rn.attempted, Failed: rn.failed, Metrics: make(map[string]metric)}
	res.Correct = rn.failed == 0
	for _, f := range rn.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	for _, def := range defs {
		v, ok := values[def.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s not computed", def.Name)
		}
		v = finite(v)
		res.Metrics[def.Name] = metric{Value: v, Unit: def.Unit}
		fmt.Printf("metric %-32s %14.6g %s\n", def.Name, v, def.Unit)
	}
	return res, nil
}

// setupReport is what a cold set-up process prints.
type setupReport struct {
	Attempted, Failed int
	Failures          []string
}

// coldSetup runs r's set-up in a fresh process of this binary and returns
// its wall time in seconds, process start and exit included, so one-time
// costs (package initialisation, first-use pools, sockets and tables) are
// in every sample. The process's answer checks count towards r's.
func coldSetup(r *runner) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "setup", "--workload", r.w.name, "--seed", fmt.Sprint(r.seed))
	cmd.Stderr = os.Stderr
	t := time.Now()
	out, err := cmd.Output()
	s := time.Since(t).Seconds()
	if err != nil {
		return 0, fmt.Errorf("cold set-up: %w", err)
	}
	var rep setupReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return 0, fmt.Errorf("cold set-up: %w", err)
	}
	r.attempted += rep.Attempted
	r.failed += rep.Failed
	for _, f := range rep.Failures {
		r.noteFailure(f)
	}
	return s, nil
}

// setupMain is the body of a cold set-up process: it sets the workload up
// once and prints its answer checks as JSON.
func setupMain(args []string) error {
	fs := flag.NewFlagSet("setup", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	r := newRunner(w, *seed)
	r.setup()
	return json.NewEncoder(os.Stdout).Encode(setupReport{r.attempted, r.failed, r.failures})
}

// writeSpans saves the traced run's spans under .bench_build/spans.
func writeSpans(rec *recorder, workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func describe() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-6s primary P=%d, input %s\n", w.name, w.primaryP, w.inputs(1)[0])
	}
	fmt.Println("end-to-end metrics (--trace 0, every workload):")
	for _, m := range endToEnd {
		fmt.Printf("  %-16s %-6s %s is better\n", m.Name, m.Unit, m.Better)
	}
	fmt.Println("per-layer metrics (--trace 1, every workload) and what they should move:")
	for _, m := range perLayer {
		fmt.Printf("  %-32s %-7s -> %s\n", m.Name, m.Unit, m.Moves)
	}
}
