package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

func TestGenJobsDeterministic(t *testing.T) {
	a, b := genJobs(42, 10), genJobs(42, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different job lists")
	}
	if reflect.DeepEqual(a, genJobs(43, 10)) {
		t.Fatal("different seeds gave the same job list")
	}
	apps := map[string]int{}
	for _, in := range a {
		apps[in.App]++
	}
	for _, app := range []string{"fib", "nqueens", "pfold", "knary"} {
		if apps[app] == 0 {
			t.Errorf("the mix has no %s job", app)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        string
	}{
		{"same runs", base, base, true, 0.1, unchanged},
		{"slower within bound", base, scale(base, 1.05), true, 0.1, unchanged},
		{"slower past bound", base, scale(base, 1.2), true, 0.1, worse},
		{"faster in every pair", base, scale(base, 0.9), true, 0.1, better},
		{"higher is better", base, scale(base, 1.1), false, 0.1, better},
		{"lower throughput", base, scale(base, 0.8), false, 0.1, worse},
		{"faster by less than the base spread", base, scale(base, 0.995), true, 0.1, unchanged},
		{"spread wider than bound", []float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100},
			scale(base, 0.97), true, 0.1, unresolved},
		{"spread wider than bound, median twice as slow", []float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100},
			scale(base, 2), true, 0.1, worse},
		{"wide spread but every run better", []float64{200, 300, 210, 290, 250, 240, 260, 220, 280, 250},
			base, true, 0.1, better},
		{"too few runs", []float64{1}, []float64{1}, true, 0.1, unresolved},
	} {
		if got := verdict(c.a, c.b, c.lowerBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestMetricsMatchSpec keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestMetricsMatchSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var sp struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}
	check := func(kind string, spec []def, code []metricDef) {
		if len(spec) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program prints %d", kind, len(spec), len(code))
			return
		}
		for i := range spec {
			if spec[i] != (def{code[i].Name, code[i].Unit, code[i].Better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, spec[i], code[i])
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd)
	check("per_layer", sp.PerLayer, perLayer)
}
