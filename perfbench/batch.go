package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/logfmt"
	"repro/internal/obs"
)

// stepCheck is one RunAll step's verdict: it completed and its
// exhibit holds the paper-shape bounds the experiments tests assert.
type stepCheck struct {
	Step  string `json:"step"`
	State string `json:"state"`
	OK    bool   `json:"ok"`
	Why   string `json:"why,omitempty"`
}

// checkReport judges every step of a RunAll report.
func checkReport(rep *experiments.Report) []stepCheck {
	bounds := map[string]func() string{
		"Figure 1": func() string {
			f := rep.Figure1
			return failIf(f.EndRatio < 3.5 || f.StartRatio > 1.2 || f.SizeShrink < 0.18 || f.SizeShrink > 0.38,
				"trend ratios end %.2f start %.2f shrink %.2f", f.EndRatio, f.StartRatio, f.SizeShrink)
		},
		"Table 2": func() string {
			s, p := rep.Table2.Short, rep.Table2.Pattern
			if s == nil || p == nil {
				return "missing dataset summary"
			}
			return failIf(s.Domains() <= p.Domains() || s.Duration() >= p.Duration(),
				"short %d domains/%v vs pattern %d/%v", s.Domains(), s.Duration(), p.Domains(), p.Duration())
		},
		"Figure 3 and §4 request/response types": func() string {
			f := rep.Figure3
			return failIf(!(f.MobileShare > f.UnknownShare && f.UnknownShare > f.EmbeddedShare && f.EmbeddedShare > f.DesktopShare) ||
				f.NonBrowser < 0.8 || f.GETShare < 0.78 || f.GETShare > 0.9 || f.POSTOfRest < 0.9 ||
				f.MedianSmaller <= 0 || f.P75Smaller <= f.MedianSmaller,
				"device/method shape %+v", f)
		},
		"Figure 4 and §4 cacheability": func() string {
			f := rep.Figure4
			news, fin := f.CacheableByCategory["News/Media"], f.CacheableByCategory["Financial Service"]
			return failIf(f.UncacheableShare < 0.4 || f.UncacheableShare > 0.7 || f.NeverShare < 0.3 || f.NeverShare > 0.7 || news <= fin,
				"uncacheable %.2f never %.2f news %.2f fin %.2f", f.UncacheableShare, f.NeverShare, news, fin)
		},
		"Figure 5 and §5.1 periodicity": func() string {
			p := rep.Periods
			if p == nil || p.Histogram == nil {
				return "no periodicity result"
			}
			// The histogram bins are the round periods (30 s … 1 h):
			// detected periods must land in them.
			return failIf(p.PeriodicObjects == 0 || p.Histogram.Total() == 0 || p.PeriodicShare < 0.01 || p.PeriodicShare > 0.25 || p.UploadShare < 0.4,
				"periodic objects %d, histogram %d, share %.3f, upload %.2f", p.PeriodicObjects, p.Histogram.Total(), p.PeriodicShare, p.UploadShare)
		},
		"Figure 6": func() string {
			p := rep.Periods
			return failIf(p == nil || p.MajorityShare < 0 || p.MajorityShare > 1, "majority share out of range")
		},
		"Table 3 and §5.2 prediction": func() string {
			t := rep.Table3
			bad := !(t.Actual[1] < t.Actual[5] && t.Actual[5] <= t.Actual[10]) ||
				!(t.Clustered[1] < t.Clustered[5] && t.Clustered[5] <= t.Clustered[10]) ||
				t.ClusteredVocab >= t.ActualVocab || t.Actual[1] < 0.2 || t.Actual[1] > 0.75
			for _, k := range []int{1, 5, 10} {
				bad = bad || t.Clustered[k] <= t.Actual[k]
			}
			return failIf(bad, "accuracies actual %v clustered %v", t.Actual, t.Clustered)
		},
		"Prefetch simulation (§5.2 implication)": func() string {
			p := rep.Prefetch
			return failIf(p.PrefetchHitRatio <= p.BaselineHitRatio || p.Waste < 0 || p.Waste > 1,
				"prefetch %.3f vs baseline %.3f, waste %.2f", p.PrefetchHitRatio, p.BaselineHitRatio, p.Waste)
		},
		"Deprioritization (§7 implication)": func() string {
			d := rep.Deprioritize
			return failIf(d.MachineShare <= 0 || d.MachineShare > 0.3 || d.Priority.Human.P95 > d.FIFO.Human.P95,
				"machine share %.3f, human p95 %.4f vs FIFO %.4f", d.MachineShare, d.Priority.Human.P95, d.FIFO.Human.P95)
		},
		"Anomaly detection (§5 applications)": func() string {
			a := rep.Anomaly
			return failIf(a.RequestInjected == 0 || a.PeriodInjected == 0 || a.RequestRecall < 0.7 || a.PeriodRecall < 0.8,
				"recall request %.2f period %.2f", a.RequestRecall, a.PeriodRecall)
		},
		"Regional vantages (§7 limitation)": func() string {
			return failIf(len(rep.Regional.PeakHour) != 3, "vantages %d", len(rep.Regional.PeakHour))
		},
		"Resilience under origin faults (robustness)": func() string {
			r := rep.Resilience
			return failIf(r.ResilientAvailability <= r.BaselineAvailability,
				"availability resilient %.3f vs baseline %.3f", r.ResilientAvailability, r.BaselineAvailability)
		},
		"Adversarial traffic and edge defenses (robustness)": func() string {
			a := rep.Adversarial
			return failIf(!a.CeilingOK || !a.StrictlyWorse, "defended amplification %.3f (ceiling %.2f)", a.DefendedAmplification, a.Ceiling)
		},
	}
	out := make([]stepCheck, len(rep.Steps))
	for i, st := range rep.Steps {
		c := stepCheck{Step: st.Name, State: st.State.String()}
		switch check := bounds[st.Name]; {
		case st.State != experiments.StepCompleted:
			c.Why = "step did not complete"
		case check == nil:
			c.Why = "no check for this step"
		default:
			c.Why = check()
		}
		c.OK = c.Why == ""
		out[i] = c
	}
	return out
}

func failIf(bad bool, format string, args ...any) string {
	if !bad {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// stepSpans maps a RunAll step span (the step's error label) to its
// per-layer metric.
var stepSpans = map[string]string{
	"figure 3":     "taxonomy.fig3_s",
	"figure 4":     "domaincat.fig4_s",
	"table 3":      "ngram.table3_s",
	"prefetch":     "prefetch.sim_s",
	"deprioritize": "sched.deprioritize_s",
	"anomaly":      "anomaly.s",
	"resilience":   "resilience.exp_s",
	"adversarial":  "defend.adversarial_s",
}

func runBatch(o runOpts, wl *workload) (*outcome, error) {
	cfg := batchConfig(o.seed, wl, o.nproc)
	dir, err := os.MkdirTemp(o.workDir, "inputs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := writeBatchInputs(dir, cfg)
	if err != nil {
		return nil, err
	}

	var tr *obs.Trace
	if o.trace {
		tr = obs.NewTrace()
	}
	// Set-up: decode both containers, several times, each after a
	// collection so the previous decode's garbage is not charged to the
	// next; the last decode feeds the runner.
	var setups []float64
	var short, pattern []logfmt.Record
	var quarantined int64
	for i := 0; i < wl.SetupRepeats; i++ {
		short, pattern = nil, nil
		runtime.GC()
		t0 := time.Now()
		quarantined = 0
		for _, ds := range []struct {
			path string
			dst  *[]logfmt.Record
		}{{in.short, &short}, {in.pattern, &pattern}} {
			sp := tr.Start("decode " + filepath.Base(ds.path))
			recs, stats, err := decodeFile(ds.path, o.nproc)
			sp.End()
			if err != nil {
				return nil, err
			}
			quarantined += stats.Quarantined
			*ds.dst = recs
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	records := float64(len(short) + len(pattern))
	if int64(records) != in.records {
		return nil, fmt.Errorf("decoded %d records, wrote %d", int64(records), in.records)
	}
	targets, pollers := plantedFlows(pattern)
	if targets == 0 {
		return nil, fmt.Errorf("pattern dataset has no planted poll targets (%s)", pollTarget)
	}
	planted := float64(targets + pollers)

	r := experiments.NewRunner(cfg)
	r.UseShortTermRecords(short)
	r.UsePatternRecords(pattern)

	out := &outcome{detail: map[string]any{}}
	if tr != nil {
		r.Instrument(nil, tr)
	}
	// The §5.1 analysis runs first, on its own: RunAll's materialize
	// phase would run it up front anyway (it is memoized), and timing
	// it apart lets that part be stated at the reference size.
	g0 := readGoStats()
	c0, t0 := cpuSeconds(), time.Now()
	sp := tr.Start("periodicity")
	per, err := r.Figure5(io.Discard)
	sp.End()
	if err != nil {
		return nil, err
	}
	perS, perCPU := time.Since(t0).Seconds(), cpuSeconds()-c0
	c1, t1 := cpuSeconds(), time.Now()
	rep, runErr := r.RunAllContext(context.Background(), io.Discard)
	checks := checkReport(rep)
	restS, restCPU := time.Since(t1).Seconds(), cpuSeconds()-c1
	g1 := readGoStats()

	// How much the detector has to analyze follows the seed: the
	// number of poll fleets the generator plants, and their clients.
	// The periodicity part is scaled to the reference count of planted
	// flows, which the input fixes; what the detector then does with
	// them, such as finding more objects periodic, stays in the figure.
	objects, flows := detectCalls(per)
	scale := wl.ReferencePlanted / planted
	refS, refCPU := perS*scale+restS, perCPU*scale+restCPU

	// A step that did not complete is wrong output; a completed step
	// whose exhibit misses a paper-shape bound is a failed operation:
	// the synthetic data at this seed did not reproduce that shape.
	var failed int64
	completed := runErr == nil
	for _, c := range checks {
		if !c.OK {
			failed++
		}
		if c.State != experiments.StepCompleted.String() {
			completed = false
		}
	}
	out.setupS = median(setups)
	out.attempted = int64(len(checks))
	out.failed = failed
	out.correct = completed
	if runErr != nil {
		out.detail["run_error"] = runErr.Error()
	}
	out.e2e = map[string]float64{
		"latency_ms":    refS * 1000,
		"cpu_us_per_op": refCPU * 1e6 / records,
	}
	out.detail["report_s"] = perS + restS
	out.detail["reference_report_s"] = refS
	out.detail["periodicity_s"] = perS
	out.detail["runall_s"] = restS
	out.detail["planted_targets"] = targets
	out.detail["planted_flows"] = planted
	out.detail["reference_planted"] = wl.ReferencePlanted
	out.detail["detect_calls"] = flows
	out.detail["records"] = records
	out.detail["error_rate"] = ratio(float64(failed), float64(len(checks)))
	out.detail["checks"] = checks
	out.detail["setup_s_all"] = setups
	out.detail["ingest.quarantined"] = quarantined

	if tr != nil {
		out.layers = batchLayers(tr, perS, restS, out.setupS, records, objects, flows, quarantined, o.nproc)
		out.layers["go.gc_cpu_share"] = ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU)
		out.layers["go.alloc_gb"] = (g1.allocBytes - g0.allocBytes) / 1e9
		out.spansFile = fmt.Sprintf("spans-%s-%d.jsonl", wl.Name, o.seed)
		out.writeSpans = func(path string) error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tr.WriteSpanLog(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	return out, nil
}

// batchLayers derives the repro-full per-layer metrics from the span
// tree: the decode spans, the periodicity pre-call and RunAll's own
// step spans.
func batchLayers(tr *obs.Trace, perS, restS, decodeS, records, objects, flows float64, quarantined int64, nproc int) map[string]float64 {
	m := map[string]float64{
		"ingest.decode_s":        decodeS,
		"ingest.records_per_s":   ratio(records, decodeS),
		"ingest.quarantined":     float64(quarantined),
		"periodicity.s":          perS,
		"experiments.other_s":    0,
		"experiments.idle_share": 0,
	}
	for _, name := range stepSpans {
		m[name] = 0
	}
	m["periodicity.objects"] = objects
	m["dsp.detect_calls"] = flows
	m["dsp.ms_per_detect"] = ratio(perS*1000, flows)

	// Step spans are RunAll's children; the idle share sweeps their
	// intervals (and the materialize phase's) for time with fewer than
	// nproc steps running.
	var root obs.SpanStat
	var steps []interval
	spans := tr.Spans()
	for _, s := range spans {
		if s.Name == "RunAll" {
			root = s
		}
	}
	for _, s := range spans {
		if root.ID == 0 || s.ParentID != root.ID {
			continue
		}
		st := s.Start.Sub(root.Start).Nanoseconds()
		steps = append(steps, interval{st, st + s.Wall.Nanoseconds()})
		if name, ok := stepSpans[s.Name]; ok {
			m[name] += s.Wall.Seconds()
		} else {
			m["experiments.other_s"] += s.Wall.Seconds()
		}
	}
	m["experiments.idle_share"] = ratio(float64(underBusy(steps, root.Wall.Nanoseconds(), nproc)), float64(root.Wall.Nanoseconds()))
	m["trace.overhead_share"] = ratio(float64(len(spans))*spanCostS(), perS+restS)
	return m
}

// pollTarget matches the URL of a periodic poll target the pattern
// generator plants: /ingest/ch<i> for upload fleets and /poll/ch<i> for
// the rest (synth's buildOneFleet).
var pollTarget = regexp.MustCompile(`^[a-z]+://[^/?]+/(ingest|poll)/ch[0-9]+$`)

// plantedFlows counts, from the records alone, the poll targets the
// generator planted and their distinct clients (client ID and user
// agent, as the §5.1 flows key them).
func plantedFlows(recs []logfmt.Record) (targets, clients int) {
	type client struct {
		id uint64
		ua string
	}
	seen := map[string]map[client]bool{}
	for i := range recs {
		u, _, _ := strings.Cut(recs[i].URL, "?")
		if !pollTarget.MatchString(u) {
			continue
		}
		if seen[u] == nil {
			seen[u] = map[client]bool{}
		}
		seen[u][client{recs[i].ClientID, recs[i].UserAgent}] = true
	}
	for _, cs := range seen {
		clients += len(cs)
	}
	return len(seen), clients
}

// detectCalls counts the detector's work in a §5.1 analysis: one call
// per analyzed object flow, plus one per client flow of each periodic
// object.
func detectCalls(per *experiments.PeriodicityResult) (objects, calls float64) {
	if per == nil || per.Analysis == nil {
		return 0, 0
	}
	for _, ob := range per.Analysis.Objects {
		objects++
		calls++
		if ob.ObjectPeriod > 0 {
			calls += float64(ob.TotalClients)
		}
	}
	return objects, calls
}

// underBusy is the time within [0, total) during which fewer than k of
// the intervals are running.
func underBusy(ivs []interval, total int64, k int) int64 {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(ivs)+2)
	for _, iv := range ivs {
		edges = append(edges, edge{iv.start, 1}, edge{iv.end, -1})
	}
	edges = append(edges, edge{0, 0}, edge{total, 0})
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	var idle, prev int64
	running := 0
	for _, e := range edges {
		at := min(max(e.at, 0), total)
		if running < k {
			idle += at - prev
		}
		prev = at
		running += e.delta
	}
	return idle
}

// spanCostS is the measured cost of recording one span, so the traced
// batch run can report its tracing overhead without a second 45-second
// report.
func spanCostS() float64 {
	tr := &obs.Trace{Limit: 1 << 10}
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.Start("calibrate").End()
	}
	return time.Since(t0).Seconds() / n
}
