package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// metric names and the end-to-end bounds.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// loadBench reads BENCHMARK.json from the repository root (the working
// directory).
func loadBench() (*benchFile, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// checkMetricSet makes sure a run reports exactly the metrics
// BENCHMARK.json declares for its mode, and no end-to-end metric reads 0.
func checkMetricSet(m map[string]metric, traced bool) error {
	bf, err := loadBench()
	if err != nil {
		return err
	}
	var want []string
	if traced {
		for _, x := range bf.PerLayer {
			want = append(want, x.Name)
		}
	} else {
		for _, x := range bf.EndToEnd {
			want = append(want, x.Name)
			if v, ok := m[x.Name]; ok && v.Value == 0 {
				return fmt.Errorf("end-to-end metric %s is 0", x.Name)
			}
		}
	}
	if len(want) != len(m) {
		return fmt.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(m), len(want))
	}
	for _, name := range want {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("run does not report %s, which BENCHMARK.json declares", name)
		}
	}
	return nil
}

// steadiness runs the workload n times on seeds seed, seed+1, ... and
// prints each metric's median, quartiles and spread (interquartile
// distance over the median). An end-to-end metric whose spread exceeds
// its bound in BENCHMARK.json is flagged, and the report fails.
func steadiness(w *workloadSpec, seed int64, seconds int, traced bool, n int, daemonBin, workDir string) error {
	bf, err := loadBench()
	if err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		res, err := runOnce(w, seed+int64(i), seconds, traced, daemonBin, workDir)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, seed+int64(i), err)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("steadiness of %s over %d runs (seeds %d..%d)\n", w.name, n, seed, seed+int64(n)-1)
	fmt.Printf("%-34s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	flagged := 0
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		sp := spread(values[name])
		bound, ok := bounds[name]
		mark, bs := "", "-"
		if ok {
			bs = fmt.Sprintf("%.2f", bound)
			if name != "setup_s" && sp > bound {
				mark = "  EXCEEDS BOUND"
				flagged++
			}
		}
		fmt.Printf("%-34s %14.6g %14.6g %14.6g %8.4f %6s%s\n", name, q1, q2, q3, sp, bs, mark)
	}
	if flagged > 0 {
		return fmt.Errorf("%d end-to-end metric(s) spread beyond their bound", flagged)
	}
	return nil
}
