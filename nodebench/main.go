// Command nodebench is ammBoost's end-to-end node benchmark. It runs one
// workload against core.MultiSystem through the node's public API —
// SubmitBatch, Run, chain.Open, Kill and the lifecycle hooks — checks the
// node's outputs, and prints every metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured on
// untraced repeats. With --trace 1 the repeats alternate untraced and
// traced, and the metrics are the per-layer ones: span attribution from
// the traced repeats, runtime counters and tracing overhead from the
// untraced ones. A traced run also writes the per-layer table and a
// Chrome trace under --out.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash nodebench/run.sh --workload zipf-day --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	tiny     bool // smoke-test sizes
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nodebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 25, "measurement budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repeats")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for traces, layer tables and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "nodebench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "nodebench: %v\n", err)
	}
	if res == nil {
		return 1
	}
	line, _ := json.Marshal(res.final())
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs(false) {
		names = append(names, sp.name)
	}
	return names
}

// metricDef names one reported metric with its unit, as BENCHMARK.json
// lists them (the smoke test holds the two to each other).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"tx_per_s", "1/s"},
	{"cpu_us_per_tx", "us"},
	{"setup_s", "s"},
	{"retained_heap_mb", "MB"},
	{"exec_latency_s_p50", "s"},
	{"exec_latency_s_p99", "s"},
	{"payout_latency_s_p50", "s"},
	{"payout_latency_s_p99", "s"},
	{"gas_per_tx", "gas"},
	{"mainchain_bytes_per_tx", "B"},
	{"sidechain_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"ingest.submit_batch_us_p50", "us"},
	{"ingest.submit_batch_us_p99", "us"},
	{"ingest.retry_ratio", "ratio"},
	{"ingest.peak_occupancy", "count"},
	{"ingest.drain_ms_per_epoch", "ms"},
	{"engine.execute_ms_per_epoch", "ms"},
	{"engine.execute_us_per_tx", "us"},
	{"engine.seal_ms_per_epoch", "ms"},
	{"engine.shard_imbalance", "ratio"},
	{"core.commit_build_ms_per_epoch", "ms"},
	{"core.chunk_ms_per_epoch", "ms"},
	{"core.sign_ms_per_epoch", "ms"},
	{"core.sign_ms_per_part", "ms"},
	{"core.sync_parts_per_epoch", "count"},
	{"core.pipeline_stall_ms_per_epoch", "ms"},
	{"core.pipeline_occupancy", "count"},
	{"core.unattributed_pct", "%"},
	{"store.encode_ms_per_epoch", "ms"},
	{"store.append_ms_per_epoch", "ms"},
	{"store.fsync_ms_per_epoch", "ms"},
	{"store.bytes_per_epoch", "B"},
	{"store.open_ms", "ms"},
	{"store.recover_s", "s"},
	{"mainchain.sync_submit_ms_per_epoch", "ms"},
	{"mainchain.sync_txs_per_epoch", "count"},
	{"mainchain.gas_per_epoch", "gas"},
	{"sidechain.prune_ms_per_epoch", "ms"},
	{"sidechain.retained_mb", "MB"},
	{"runtime.alloc_bytes_per_tx", "B"},
	{"runtime.allocs_per_tx", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.peak_heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// result is one invocation's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	untouched int // pools flagged for the known untouched-genesis defect
	defs      []metricDef
	values    map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// final is the machine-readable last line. A failed check reports the
// failure instead of numbers.
func (r *result) final() finalLine {
	f := finalLine{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if !r.correct {
		return f
	}
	for _, d := range r.defs {
		f.Metrics[d.name] = metricOut{Value: r.values[d.name], Unit: d.unit}
	}
	return f
}

// Run-shape constants: the set-up samples a run takes before its
// repeats (one construction takes milliseconds, too short to time
// steadily alone), and the fewest repeats of each kind a run makes
// whatever its budget.
const (
	setupSamples = 31
	minRepeats   = 2
)

func bench(o options, out io.Writer) (*result, error) {
	var sp *spec
	for _, s := range specs(o.tiny) {
		if s.name == o.workload {
			s := s
			sp = &s
		}
	}
	if sp == nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	dataDir := filepath.Join(o.out, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	prov := hostProvenance()
	fmt.Fprintf(out, "nodebench %s seed=%d seconds=%g trace=%v\n", sp.name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(out, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s loadavg=%.2f/%.2f/%.2f\n",
		prov.NumCPU, prov.GOMAXPROCS, prov.CPUModel, prov.GoVersion, prov.LoadAvg[0], prov.LoadAvg[1], prov.LoadAvg[2])

	var setups []float64
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		d, err := setupOnly(*sp, o.seed, dataDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	var reps []*repeat
	res := &result{correct: true}
	// Repeat 0 warms the process up (heap growth, first-touch page
	// faults): it is checked like every repeat but not measured.
	var warm *repeat
	var start time.Time
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 0 && i > 0
		repStart := time.Now()
		r, err := runRepeat(*sp, o.seed, traced, dataDir)
		if err != nil {
			res.correct = false
			return res, fmt.Errorf("%s repeat %d: %w", sp.name, i, err)
		}
		res.attempted += r.attempted
		res.failed += r.attempted - r.executed
		res.untouched = max(res.untouched, r.untouched)
		fmt.Fprintf(out, "repeat %d traced=%v: %.2fs, window %d epochs %.2fs %d txs, %.0f txs per drain, executed %d of %d\n",
			i, traced, time.Since(repStart).Seconds(), r.winEps, r.win.wall.Seconds(),
			r.winTxs, r.fill, r.executed, r.attempted)
		runtime.GC()
		if i == 0 {
			warm, start = r, time.Now()
			continue
		}
		reps = append(reps, r)
		if time.Since(start) >= budget && enough(reps, o.trace) {
			break
		}
	}
	if err := checkRepeats(*sp, append([]*repeat{warm}, reps...)); err != nil {
		res.correct = false
		return res, err
	}

	untraced, traced := split(reps)
	fmt.Fprintf(out, "repeats: %d untraced, %d traced in %.1fs; failed %d of %d attempted (%.4f%%)\n",
		len(untraced), len(traced), time.Since(start).Seconds(), res.failed, res.attempted,
		100*ratio(float64(res.failed), float64(res.attempted)))
	if res.untouched > 0 {
		fmt.Fprintf(out, "known defect: Validate flags %d pools whose untouched genesis position the bank never received; all other parity holds\n", res.untouched)
	}
	perRep := map[string][]float64{}
	add := func(k string, v float64) { perRep[k] = append(perRep[k], v) }
	if o.trace {
		res.defs = perLayer
		for _, r := range traced {
			for k, v := range r.layers {
				add(k, v)
			}
		}
		for _, r := range untraced {
			add("runtime.alloc_bytes_per_tx", ratio(float64(r.win.allocBytes), float64(r.winTxs)))
			add("runtime.allocs_per_tx", ratio(float64(r.win.allocObjs), float64(r.winTxs)))
			add("runtime.gc_cpu_pct", 100*ratio(r.win.gcCPU, r.win.totalCPU))
			add("runtime.peak_heap_mb", float64(r.peakHeap)/1e6)
		}
		add("trace.overhead_pct", 100*(median(wallPerTx(traced))/median(wallPerTx(untraced))-1))
	} else {
		res.defs = endToEnd
		perRep["setup_s"] = setups
		for _, r := range reps {
			add("tx_per_s", ratio(float64(r.winTxs), r.win.wall.Seconds()))
			add("cpu_us_per_tx", ratio(float64(r.win.cpu.Microseconds()), float64(r.winTxs)))
			add("retained_heap_mb", r.retainedMB)
			add("exec_latency_s_p50", r.execLat.p50)
			add("exec_latency_s_p99", r.execLat.p99)
			add("payout_latency_s_p50", r.payLat.p50)
			add("payout_latency_s_p99", r.payLat.p99)
			add("gas_per_tx", r.gasPerTx)
			add("mainchain_bytes_per_tx", r.bytesPerTx)
			add("sidechain_peak_mb", r.scPeakMB)
		}
		r := reps[0]
		fmt.Fprintf(out, "latency samples per repeat: exec n=%d, payout n=%d (%s)\n",
			r.execLat.n, r.payLat.n, latencyOrigin(*sp))
	}
	res.values = map[string]float64{}
	fmt.Fprintf(out, "%-36s %14s %-6s %14s %14s %4s\n", "metric", "median", "unit", "q1", "q3", "n")
	for _, d := range res.defs {
		xs := perRep[d.name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("metric %s has no samples", d.name)
		}
		med := median(xs)
		if math.IsNaN(med) || math.IsInf(med, 0) {
			return nil, fmt.Errorf("metric %s is not a number", d.name)
		}
		q1, q3 := quartiles(xs)
		res.values[d.name] = med
		fmt.Fprintf(out, "%-36s %14.6g %-6s %14.6g %14.6g %4d\n", d.name, med, d.unit, q1, q3, len(xs))
	}
	if o.trace {
		if err := writeTraceFiles(o, *sp, traced[len(traced)-1], res, out); err != nil {
			return nil, err
		}
	}
	if err := writeResult(o, *sp, prov, res, perRep); err != nil {
		return nil, err
	}
	return res, nil
}

func runRepeat(sp spec, seed int64, traced bool, dataDir string) (*repeat, error) {
	if sp.closed != nil {
		return runDurable(sp, seed, traced, dataDir)
	}
	return runOpen(sp, seed, traced)
}

func latencyOrigin(sp spec) string {
	if sp.closed != nil {
		return "timed from the node's drain stamp"
	}
	return "timed from each transaction's scheduled due time"
}

func enough(reps []*repeat, trace bool) bool {
	untraced, traced := split(reps)
	if !trace {
		return len(untraced) >= minRepeats
	}
	return len(untraced) >= minRepeats && len(traced) >= minRepeats
}

func split(reps []*repeat) (untraced, traced []*repeat) {
	for _, r := range reps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	return untraced, traced
}

func wallPerTx(reps []*repeat) []float64 {
	var xs []float64
	for _, r := range reps {
		xs = append(xs, ratio(r.win.wall.Seconds(), float64(r.winTxs)))
	}
	return xs
}

// checkRepeats holds every repeat of one invocation to the workload's
// determinism contract. On the open-loop workloads the node's computed
// state (the fold of its per-epoch summary roots) and every virtual-time
// metric must repeat exactly, traced or not; the closed loop's epoch
// cuts follow the wall-clock race between producers and drains, so only
// its per-repeat checks apply.
func checkRepeats(sp spec, reps []*repeat) error {
	for i, r := range reps {
		if r.executed == 0 || r.winTxs == 0 {
			return fmt.Errorf("repeat %d executed no transactions in its window", i)
		}
	}
	if sp.closed != nil {
		return nil
	}
	a := reps[0]
	for i, r := range reps[1:] {
		if r.rootFold != a.rootFold {
			return fmt.Errorf("repeat %d (traced=%v): summary-root fold %x differs from repeat 0's %x",
				i+1, r.traced, r.rootFold[:8], a.rootFold[:8])
		}
		if r.execLat != a.execLat || r.payLat != a.payLat || r.gasPerTx != a.gasPerTx ||
			r.bytesPerTx != a.bytesPerTx || r.scPeakMB != a.scPeakMB || r.winTxs != a.winTxs {
			return fmt.Errorf("repeat %d (traced=%v): virtual-time metrics differ from repeat 0's", i+1, r.traced)
		}
	}
	return nil
}

// writeTraceFiles writes the traced run's per-layer table and the last
// traced repeat's Chrome trace.
func writeTraceFiles(o options, sp spec, r *repeat, res *result, out io.Writer) error {
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", sp.name, o.seed))
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer attribution: %s seed %d (medians over traced repeats; runtime.* and trace.* from untraced repeats)\n", sp.name, o.seed)
	layers := map[string][]metricDef{}
	var order []string
	for _, d := range perLayer {
		layer, _, _ := strings.Cut(d.name, ".")
		if _, ok := layers[layer]; !ok {
			order = append(order, layer)
		}
		layers[layer] = append(layers[layer], d)
	}
	for _, layer := range order {
		fmt.Fprintf(&b, "[%s]\n", layer)
		for _, d := range layers[layer] {
			fmt.Fprintf(&b, "  %-36s %14.6g %s\n", d.name, res.values[d.name], d.unit)
		}
	}
	fmt.Fprint(out, b.String())
	if err := os.WriteFile(base+"-layers.txt", []byte(b.String()), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.tracer.WriteChrome(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeResult records the invocation's metrics with their spread over
// the repeats and the host they were measured on.
func writeResult(o options, sp spec, prov provenance, res *result, perRep map[string][]float64) error {
	type stat struct {
		Median  float64   `json:"median"`
		Q1      float64   `json:"q1"`
		Q3      float64   `json:"q3"`
		Unit    string    `json:"unit"`
		Samples []float64 `json:"samples"`
	}
	doc := struct {
		Workload  string          `json:"workload"`
		Seed      int64           `json:"seed"`
		Trace     bool            `json:"trace"`
		Host      provenance      `json:"host"`
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Untouched int             `json:"known_defect_untouched_genesis_pools"`
		Metrics   map[string]stat `json:"metrics"`
	}{sp.name, o.seed, o.trace, prov, res.correct, res.attempted, res.failed, res.untouched, map[string]stat{}}
	for _, d := range res.defs {
		q1, q3 := quartiles(perRep[d.name])
		doc.Metrics[d.name] = stat{res.values[d.name], q1, q3, d.unit, perRep[d.name]}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", sp.name, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	return os.WriteFile(filepath.Join(o.out, name), b, 0o644)
}
