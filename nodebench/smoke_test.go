package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkDoc is the part of ../BENCHMARK.json the smoke test checks
// the benchmark's output against.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that its checks pass and that it emits every metric
// BENCHMARK.json names, with the same unit and a finite value.
func TestSmoke(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	ws := specs(true)
	if len(ws) != len(doc.Workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(ws), len(doc.Workloads))
	}
	for i, sp := range ws {
		if doc.Workloads[i].Name != sp.name {
			t.Fatalf("workload %d is %q here, %q in BENCHMARK.json", i, sp.name, doc.Workloads[i].Name)
		}
	}
	wantUnits := func(trace bool) map[string]string {
		m := map[string]string{}
		src := doc.EndToEnd
		if trace {
			src = doc.PerLayer
		}
		for _, d := range src {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, sp := range ws {
		for _, trace := range []bool{false, true} {
			sp, trace := sp, trace
			t.Run(sp.name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				out := t.TempDir()
				var log bytes.Buffer
				res, err := bench(options{workload: sp.name, seed: 3, trace: trace, out: out, tiny: true}, &log)
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				line := res.final()
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", line.Correct, line.Failed, line.Attempted)
				}
				want := wantUnits(trace)
				if len(line.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := line.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", name, m.Value)
					}
				}
				if trace {
					base := filepath.Join(out, sp.name+"-seed3")
					for _, f := range []string{base + "-layers.txt", base + ".trace.json"} {
						if st, err := os.Stat(f); err != nil || st.Size() == 0 {
							t.Errorf("traced run left no %s: %v", f, err)
						}
					}
				}
			})
		}
	}
}

// TestUnknownWorkloadFails checks that a bad invocation exits non-zero
// without printing a result line.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &stdout, &stderr)
	if code == 0 || strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestLayerMap checks that layers.json describes exactly the metrics
// BENCHMARK.json names, and files every per-layer metric under the
// layer its name starts with.
func TestLayerMap(t *testing.T) {
	doc := loadBenchmarkDoc(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm struct {
		EndToEnd map[string]string `json:"end_to_end"`
		Layers   map[string]struct {
			Metrics []string `json:"metrics"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(b, &lm); err != nil {
		t.Fatal(err)
	}
	if len(lm.EndToEnd) != len(doc.EndToEnd) {
		t.Errorf("layers.json describes %d end-to-end metrics, BENCHMARK.json has %d", len(lm.EndToEnd), len(doc.EndToEnd))
	}
	for _, d := range doc.EndToEnd {
		if lm.EndToEnd[d.Name] == "" {
			t.Errorf("layers.json does not describe %s", d.Name)
		}
	}
	filed := map[string]bool{}
	for layer, l := range lm.Layers {
		for _, m := range l.Metrics {
			if !strings.HasPrefix(m, layer+".") {
				t.Errorf("%s filed under layer %s", m, layer)
			}
			filed[m] = true
		}
	}
	if len(filed) != len(doc.PerLayer) {
		t.Errorf("layers.json files %d per-layer metrics, BENCHMARK.json has %d", len(filed), len(doc.PerLayer))
	}
	for _, d := range doc.PerLayer {
		if !filed[d.Name] {
			t.Errorf("per-layer metric %s is in no layer", d.Name)
		}
	}
}
