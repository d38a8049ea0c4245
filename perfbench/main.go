// Command perfbench is the repository's end-to-end benchmark. It takes
// a workload name and a seed, generates that workload's inputs from the
// seed, runs them through the program's public entry points, checks the
// outputs, and prints the metrics as one JSON object on the last line
// of standard output (a JSON line of run details precedes it).
//
// Workloads (parameters in workloads.json, rationale in NOTES.md):
//
//	repro-full   experiments.Runner.RunAllContext over both datasets,
//	             handed in as flate .cdnc files decoded with ingest
//	serve-hot    open-loop replay through fleet → 3 edges → origin,
//	             a small working set, livechar on, defend off
//	serve-churn  the same stack with defend on, an attack overlay and a
//	             cache kept full, so every insert evicts
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate, traced run carries the per-layer metrics
// derived from spans recorded around each layer's entry points, and
// the spans are written under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// runOpts are one run's command-line settings.
type runOpts struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	nproc    int
	workDir  string
}

// outcome is what a workload run measured.
type outcome struct {
	setupS    float64
	e2e       map[string]float64 // end-to-end metrics (run fills in setup_s and peak_rss_mb)
	layers    map[string]float64 // per-layer metrics (traced runs)
	attempted int64
	failed    int64
	correct   bool
	detail    map[string]any

	spansFile  string
	writeSpans func(path string) error
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run prints. Each workload
// maps them onto its own unit of work (see NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"latency_ms", "ms"}, {"cpu_us_per_op", "us"}, {"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a traced run prints: all of them on every
// workload, with 0 for layers the workload does not exercise.
var perLayer = []metricDef{
	{"ingest.decode_s", "s"}, {"ingest.records_per_s", "1/s"}, {"ingest.quarantined", "count"},
	{"periodicity.s", "s"}, {"periodicity.objects", "count"}, {"dsp.detect_calls", "count"}, {"dsp.ms_per_detect", "ms"},
	{"ngram.table3_s", "s"}, {"prefetch.sim_s", "s"},
	{"taxonomy.fig3_s", "s"}, {"domaincat.fig4_s", "s"}, {"sched.deprioritize_s", "s"}, {"anomaly.s", "s"},
	{"resilience.exp_s", "s"}, {"defend.adversarial_s", "s"}, {"experiments.other_s", "s"}, {"experiments.idle_share", "ratio"},
	{"replay.offered_ratio", "ratio"}, {"replay.service_ms.p50", "ms"}, {"replay.service_ms.p99", "ms"},
	{"fleet.self_us.p50", "us"}, {"fleet.self_us.p99", "us"}, {"fleet.hop_us.p50", "us"},
	{"fleet.attempts_per_req", "ratio"}, {"fleet.node_skew", "ratio"},
	{"edge.self_us.p50", "us"}, {"edge.self_us.p99", "us"}, {"edge.hit_ratio", "ratio"}, {"edge.evictions_per_kreq", "1/kreq"},
	{"resilience.fetch_ms.p50", "ms"}, {"resilience.fetch_ms.p99", "ms"}, {"resilience.attempts_per_fetch", "ratio"},
	{"origin.busy_share", "ratio"}, {"origin.fetch_ratio", "ratio"},
	{"defend.admit_us.p50", "us"}, {"defend.reject_ratio", "ratio"}, {"defend.collapse_ratio", "ratio"},
	{"livechar.observe_us.p50", "us"}, {"livechar.drop_ratio", "ratio"},
	{"go.gc_cpu_share", "ratio"}, {"go.alloc_kb_per_req", "KB"}, {"go.alloc_gb", "GB"},
	{"trace.overhead_share", "ratio"}, {"trace.spans_unmatched", "count"},
}

func main() {
	var o runOpts
	var seed int64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see workloads.json)")
	flag.Int64Var(&seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured part of a serve run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	if err := run(o, seed, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o runOpts, seed int64, trace int) error {
	if seed < 0 || o.seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("want --seed >= 0, --seconds >= 1, --trace 0|1")
	}
	o.seed, o.trace = uint64(seed), trace == 1
	wl, sc, err := loadConfig(o.workload)
	if err != nil {
		return err
	}
	o.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(o.nproc)
	o.workDir = filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}

	var out *outcome
	switch wl.Kind {
	case "batch":
		out, err = runBatch(o, wl)
	case "serve":
		out, err = runServe(o, wl, sc)
	default:
		err = fmt.Errorf("workload %s: unknown kind %q", wl.Name, wl.Kind)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}

	metrics := map[string]metricValue{}
	if o.trace {
		for _, m := range perLayer {
			metrics[m.name] = metricValue{out.layers[m.name], m.unit}
		}
		if out.writeSpans != nil {
			path := filepath.Join(o.workDir, out.spansFile)
			if err := out.writeSpans(path); err != nil {
				return err
			}
			out.detail["spans_file"] = path
		}
	} else {
		out.e2e["setup_s"] = out.setupS
		out.e2e["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			metrics[m.name] = metricValue{out.e2e[m.name], m.unit}
		}
	}
	out.detail["provenance"] = provenance(o)
	return emit(os.Stdout, out, metrics)
}

// provenance records what produced the numbers.
func provenance(o runOpts) map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"workload":     o.workload,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"traced":       o.trace,
		"nproc":        o.nproc,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"vcs_revision": rev,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the detail line, then the result line.
func emit(w io.Writer, out *outcome, metrics map[string]metricValue) error {
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			metrics[name] = m
		}
	}
	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	detail, err := json.Marshal(map[string]any{"detail": out.detail})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, line)
	return err
}
