package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// provenance says what was measured and where, so results from different
// revisions and machines can be told apart and compared at all.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`   // "unknown" outside a git checkout
	GitDirty   string `json:"git_dirty"` // "true", "false" or "unknown"
	SourceHash string `json:"source_sha256"`
	// StealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests while the run measured (-1 where /proc/stat has no
	// steal column). Wall-clock metrics rise with it; on a shared VM it is
	// the first thing to check when two result sets disagree.
	StealPct float64 `json:"steal_pct"`
}

func newProvenance(workload string, seed int64, seconds int, trace bool) provenance {
	p := provenance{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
		GitDirty:   "unknown",
		SourceHash: sourceHash("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitRev = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value
			}
		}
	}
	return p
}

// stealTicks reads the machine-wide steal time from /proc/stat, in clock
// ticks (USER_HZ, 100 per second on Linux).
func stealTicks() (int64, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, false
	}
	fields := strings.Fields(sc.Text()) // "cpu user nice system idle iowait irq softirq steal ..."
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, false
	}
	n, err := strconv.ParseInt(fields[8], 10, 64)
	return n, err == nil
}

// stealPct converts a steal-tick delta over elapsed into a share of all
// CPUs' time, in percent: a tick is 1/100 s, so ticks per CPU-second is
// already a percentage.
func stealPct(ticks int64, elapsed time.Duration) float64 {
	return float64(ticks) / (elapsed.Seconds() * float64(runtime.NumCPU()))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes the Go sources, module files and BENCHMARK.json under
// root, skipping hidden directories (build output lives there). It
// identifies the code measured even where no git metadata exists.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" && name != "BENCHMARK.json" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
