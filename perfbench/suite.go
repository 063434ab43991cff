package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// suiteMain runs every workload, untraced, for every seed, each run its
// own process of this binary (so each run's peak memory is its own) with
// BENCHMARK.json's run_seconds, and appends each record to one result set.
func suiteMain(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ContinueOnError)
	seedSpec := fs.String("seeds", "1-10", "seeds: a range a-b or a comma-separated list")
	out := fs.String("out", "", "result-set file to append to (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("suite needs --out")
	}
	seeds, err := parseSeeds(*seedSpec)
	if err != nil {
		return err
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		for _, seed := range seeds {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0", "--out", *out)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			fmt.Printf("== %s seed %d\n", w.name, seed)
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
		}
	}
	return nil
}

func parseSeeds(s string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}
