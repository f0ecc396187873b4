package main

import "encoding/json"

// How much is measured. The full suite runs every workload at full
// scale, suiteReps timed repetitions of the one campaign -seed names.
// The acceptance driver makes 4 + 22 x 7 runs and allows 3420 s for all
// of them, about 21 s a run, so its runs (-seconds) scale every fault
// count by contractScale and measure each workload's fixed
// ContractSeeds x ContractPasses, which fills about contractSeconds on
// the reference box; a run that reports per-layer metrics only times
// tracedRunPasses repetitions of the traced campaign instead. Mesh, rate
// and cycle parameters never scale. The tests run at 1/64.
const (
	suiteReps       = 5
	contractScale   = 0.25
	contractSeconds = 18
	tracedRunPasses = 3
	testScale       = 1.0 / 64
)

// manifestJSON renders BENCHMARK.json from the workload and metric
// tables, so the file cannot drift from what the harness emits
// (bench_test.go compares the committed file with this).
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: contractSeconds,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range contractMetrics(endToEnd) {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range contractMetrics(perLayer) {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
