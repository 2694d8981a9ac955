package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at smoke scale
// against the real mhserve binary built from the tree: every metric
// BENCHMARK.json names must be printed with its unit, no request may
// fail, and a corrupted expectation must be counted as a failure.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/mhserve and runs every workload")
	}
	const root = "../.."
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, mhload has %d", len(spec.Workloads), len(workloads))
	}
	work := t.TempDir()
	bin, err := buildServer(root, work)
	if err != nil {
		t.Fatal(err)
	}
	base := config{root: root, work: work, bin: bin, seed: 7, launches: 1, requests: 200}

	for _, ws := range spec.Workloads {
		wl, ok := workloadByName(ws.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to mhload", ws.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := base
			cfg.trace = trace
			cfg.spans = filepath.Join(work, wl.name+".spans")
			res, err := runWorkload(cfg, wl)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Meta["error_rate"] != 0.0 {
				t.Errorf("%s trace=%t: %d of %d requests failed", wl.name, trace, res.Failed, res.Attempted)
			}
			var out bytes.Buffer
			report(&out, res)
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var printed struct {
				Correct   *bool
				Attempted int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal(lines[len(lines)-1], &printed); err != nil || printed.Correct == nil || printed.Attempted < 1 {
				t.Fatalf("%s trace=%t: last line %q is not a result (%v)", wl.name, trace, lines[len(lines)-1], err)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(printed.Metrics) != len(want) {
				t.Errorf("%s trace=%t: printed %d metrics, BENCHMARK.json names %d", wl.name, trace, len(printed.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := printed.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v, want unit %q", wl.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}

	cfg := base
	cfg.corrupt = true
	res, err := runWorkload(cfg, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Correct {
		t.Errorf("corrupted expectation: failed=%d correct=%t, want a counted failure", res.Failed, res.Correct)
	}
}
