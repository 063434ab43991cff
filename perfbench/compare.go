package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json suite and compare need.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// verdict judges one (workload, metric) from the base runs a and the
// change's runs b, paired by position (equal seeds when both sets ran the
// same seeds). It follows the choosing-metrics guide, section 8:
//
//   - the change is worse when its median is worse than the base's by more
//     than bound (a share of the base median), however wide the spread;
//   - when the base's quartile spread is wider than the bound, a change
//     that is not better in every run than every base run is unresolved,
//     never unchanged;
//   - it is better when it wins at least nine tenths of the pairs, ties
//     counting for neither, and the medians differ by more than the base's
//     own quartile spread;
//   - otherwise it is unchanged.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	if len(a) < 2 || len(b) < 2 {
		return unresolved
	}
	sign := 1.0 // positive = b is better
	if !lowerBetter {
		sign = -1
	}
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	if ma == 0 {
		return unresolved
	}
	gain := sign * (ma - mb) / ma
	if gain < -bound {
		return worse
	}
	if (q3-q1)/ma > bound {
		if allBetter(a, b, sign) {
			return better
		}
		return unresolved
	}
	n := min(len(a), len(b))
	wins := 0
	for i := 0; i < n; i++ {
		if sign*(a[i]-b[i]) > 0 {
			wins++
		}
	}
	if gain > 0 && float64(wins) >= 0.9*float64(n) && gain*ma > q3-q1 {
		return better
	}
	return unchanged
}

func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(x-y) <= 0 {
				return false
			}
		}
	}
	return true
}

// readSet loads a result set: untraced records only, grouped by workload
// and sorted by seed so two sets over the same seeds pair up.
func readSet(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Provenance.Trace {
			set[r.Provenance.Workload] = append(set[r.Provenance.Workload], r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	for _, rs := range set {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Provenance.Seed < rs[j].Provenance.Seed })
	}
	return set, nil
}

func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two result-set files: base and change")
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := readSet(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := readSet(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-6s %-16s %5s %28s %28s %7s  %s\n", "load", "metric", "bound",
		"base q1/median/q3 (n)", "change q1/median/q3 (n)", "delta", "verdict")
	for _, name := range names {
		a, b := base[name], change[name]
		if len(b) == 0 {
			fmt.Fprintf(w, "%-6s (no runs in %s)\n", name, fs.Arg(1))
			continue
		}
		for _, m := range sp.EndToEnd {
			av, bv := values(a, m.Name), values(b, m.Name)
			v := verdict(av, bv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-6s %-16s %5.2f %28s %28s %+6.1f%%  %s\n", name, m.Name, m.Bound,
				summary(av), summary(bv), 100*(med(bv)-med(av))/med(av), v)
		}
		fmt.Fprintf(w, "%-6s %-16s %5s %28s %28s   (machine, no verdict)\n", name, "steal_pct", "",
			summary(steals(a)), summary(steals(b)))
	}
	return nil
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func steals(rs []record) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Provenance.StealPct)
	}
	return out
}

func med(xs []float64) float64 {
	if len(xs) < 2 {
		return median(xs)
	}
	_, m, _ := quartiles(xs)
	return m
}

func summary(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("%.4g (n=%d)", median(xs), len(xs))
	}
	q1, m, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g (%d)", q1, m, q3, len(xs))
}
