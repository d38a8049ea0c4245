package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/replay"
)

// serveRun drives one serve workload: repeated set-ups, a warm-up, the
// nominal window, then either the rate ladder (untraced) or a second,
// traced nominal window.
type serveRun struct {
	wl    *workload
	recs  []logfmt.Record
	pos   int
	st    *stack
	tr    *tracer
	check *checkingTransport
	conc  int
}

// phase is one rate held for a duration, replayed as consecutive
// sub-windows of at least subWindowSamples requests each. Its
// percentiles are medians over the sub-windows, so a transient stall
// of the shared machine moves one sub-window, not the phase.
type phase struct {
	latency *obs.HDRHistogram // pooled intended-start latency
	service *obs.HDRHistogram // pooled service time
	p50s    []float64         // per sub-window, ms
	p99s    []float64
	offered int64
	sent    int64
	wall    time.Duration
}

// subWindowSamples is the least sample count per sub-window: its p99
// then has at least ten samples beyond it.
const subWindowSamples = 1000

// nominalWindow is what one nominal-rate window measured.
type nominalWindow struct {
	*phase
	out      outcomes
	cpuS     float64
	gcCPU    float64
	totalCPU float64
	alloc    float64
	before   counters
	after    counters
	dur      time.Duration
}

func (w *nominalWindow) cpuUSPerReq() float64 {
	return ratio(w.cpuS*1e6, float64(w.sent))
}

// take returns the records for a window at rate for d. A looping
// workload replays its whole (warm-up sized) stream in every window, so
// after the warm-up every cacheable object is resident; otherwise the
// window gets the next stretch of the stream, so new objects keep
// arriving.
func (s *serveRun) take(rate float64, d time.Duration) ([]logfmt.Record, error) {
	if !s.wl.Churn {
		return s.recs, nil
	}
	n := int(math.Ceil(rate*d.Seconds())) + 1
	if s.pos+n > len(s.recs) {
		return nil, fmt.Errorf("stream too short: need %d more records at %d/%d", n, s.pos, len(s.recs))
	}
	out := s.recs[s.pos : s.pos+n]
	s.pos += n
	return out, nil
}

// replay plays the next stretch of the stream at rate for d.
func (s *serveRun) replay(rate float64, d time.Duration) (*replay.Result, error) {
	recs, err := s.take(rate, d)
	if err != nil {
		return nil, err
	}
	return replay.Run(context.Background(), recs, replay.Config{
		Target:      s.st.frontURL,
		Rate:        rate,
		Duration:    d,
		Concurrency: s.conc,
		Timeout:     10 * time.Second,
		Client:      &http.Client{Transport: s.check, Timeout: 10 * time.Second},
	})
}

// phase replays rate for d as up to maxSub sub-windows.
func (s *serveRun) phase(rate float64, d time.Duration, maxSub int) (*phase, error) {
	p := &phase{
		latency: obs.NewHDRHistogram(obs.LatencyHDRConfig()),
		service: obs.NewHDRHistogram(obs.LatencyHDRConfig()),
	}
	k := max(1, min(maxSub, int(rate*d.Seconds()/subWindowSamples)))
	for i := 0; i < k; i++ {
		res, err := s.replay(rate, d/time.Duration(k))
		if err != nil {
			return nil, err
		}
		p.latency.Merge(res.Latency)
		p.service.Merge(res.Service)
		p.p50s = append(p.p50s, float64(res.Latency.Quantile(0.50))/1e6)
		p.p99s = append(p.p99s, float64(res.Latency.Quantile(0.99))/1e6)
		p.offered += res.Offered
		p.sent += res.Sent
		p.wall += res.Wall
	}
	return p, nil
}

// nominal measures one window at the nominal rate.
func (s *serveRun) nominal(d time.Duration) (*nominalWindow, error) {
	w := &nominalWindow{dur: d, before: s.st.counters()}
	o0 := s.check.snapshot()
	g0 := readGoStats()
	c0 := cpuSeconds()
	p, err := s.phase(s.wl.NominalRPS, d, 9)
	if err != nil {
		return nil, err
	}
	w.phase = p
	w.cpuS = cpuSeconds() - c0
	g1 := readGoStats()
	w.out = s.check.snapshot().minus(o0)
	w.after = s.st.counters()
	w.gcCPU = g1.gcCPU - g0.gcCPU
	w.totalCPU = g1.totalCPU - g0.totalCPU
	w.alloc = g1.allocBytes - g0.allocBytes
	return w, nil
}

// ladder runs each rung for d and judges it against the limit.
func (s *serveRun) ladder(d time.Duration) ([]rung, error) {
	var rungs []rung
	for _, rate := range s.wl.LadderRPS {
		o0 := s.check.snapshot()
		p, err := s.phase(rate, d, 3)
		if err != nil {
			return nil, err
		}
		out := s.check.snapshot().minus(o0)
		r := rung{
			Rate:     rate,
			P99MS:    median(p.p99s),
			Samples:  p.latency.Count(),
			Achieved: ratio(float64(p.sent), p.wall.Seconds()),
			Failed:   out.failed(),
		}
		r.judge(s.wl.P99LimitMS)
		rungs = append(rungs, r)
	}
	return rungs, nil
}

// Shares of --seconds: the warm-up, the nominal window, and the rest
// for the ladder (or the traced window).
const warmupShare, nominalShare = 0.15, 0.45

func runServe(o runOpts, wl *workload, sc stackConfig) (*outcome, error) {
	seconds := float64(o.seconds) * float64(time.Second)
	warm := time.Duration(seconds * warmupShare)
	nom := time.Duration(seconds * nominalShare)
	rest := time.Duration(seconds * (1 - warmupShare - nominalShare))
	rungDur := rest / time.Duration(len(wl.LadderRPS))

	// The stream covers the warm-up and nominal windows plus the ladder
	// (or the traced window), with margin for the +1 record per window.
	need := wl.NominalRPS*(warm+nom+rest).Seconds() + 64
	for _, r := range wl.LadderRPS {
		need += r * rungDur.Seconds()
	}
	if !wl.Churn {
		need = math.Ceil(wl.NominalRPS*warm.Seconds()) + 1
	}
	recs, err := serveStream(o.seed, wl, int(need))
	if err != nil {
		return nil, err
	}
	s := &serveRun{wl: wl, recs: recs, conc: o.nproc}
	if o.trace {
		s.tr = newTracer()
	}

	// Set-up: build the stack, bind the listeners, wait for readiness;
	// repeated, keeping the last. One set-up is a few milliseconds,
	// much of it loopback round trips, so it is taken many times, each
	// after a collection so an earlier stack's garbage is not charged
	// to the next, and setup_s is the median.
	var setups []float64
	for i := 0; i < wl.SetupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		st, err := buildStack(sc, wl, s.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < wl.SetupRepeats-1 {
			st.close()
			continue
		}
		s.st = st
	}
	defer s.st.close()
	base := proxyTransport()
	base.MaxIdleConnsPerHost = s.conc
	defer base.CloseIdleConnections()
	s.check = &checkingTransport{base: base, allow429: wl.Churn}

	if wl.Churn {
		s.st.prefill(sc.CacheBytes)
	}
	if _, err := s.replay(wl.NominalRPS, warm); err != nil {
		return nil, err
	}
	win, err := s.nominal(nom)
	if err != nil {
		return nil, err
	}

	out := &outcome{detail: map[string]any{}}
	out.setupS = median(setups)
	out.detail["setup_runs"] = len(setups)
	p50, p99 := median(win.p50s), median(win.p99s)
	reqs := float64(win.out.Sent)
	fetches := float64(win.after.fetches - win.before.fetches)

	if !o.trace {
		rungs, err := s.ladder(rungDur)
		if err != nil {
			return nil, err
		}
		slo, capped := sloRPS(rungs, wl.P99LimitMS)
		out.e2e = map[string]float64{
			"latency_ms":    p50,
			"cpu_us_per_op": win.cpuUSPerReq(),
		}
		out.detail["ladder"] = rungs
		out.detail["ladder_capped"] = capped
		out.detail["ladder_rung_s"] = rungDur.Seconds()
		out.detail["slo_rps"] = slo
	} else {
		// The traced window: same rate, the next stretch of the stream,
		// with spans on. The untraced window above is its baseline.
		s.tr.on.Store(true)
		tw, err := s.nominal(nom)
		spans := s.tr.take()
		if err != nil {
			return nil, err
		}
		out.layers = serveLayers(wl, tw, analyze(spans), s.conc)
		out.layers["trace.overhead_share"] = ratio(tw.cpuUSPerReq()-win.cpuUSPerReq(), win.cpuUSPerReq())
		out.spansFile = fmt.Sprintf("spans-%s-%d.jsonl", wl.Name, o.seed)
		out.writeSpans = func(path string) error { return writeSpans(path, spans) }
	}

	final := s.check.snapshot()
	out.attempted = final.Sent
	out.failed = final.failed()
	out.correct = final.incorrect() == 0
	tailQ, _ := tailQuantile(win.latency.Count())
	out.detail["p50_ms"] = p50
	out.detail["p99_ms"] = p99
	out.detail["sub_window_p50_ms"] = win.p50s
	out.detail["sub_window_p99_ms"] = win.p99s
	out.detail["pooled_p50_ms"] = float64(win.latency.Quantile(0.50)) / 1e6
	out.detail["pooled_p99_ms"] = float64(win.latency.Quantile(0.99)) / 1e6
	out.detail["tail_quantile"] = tailQ
	out.detail["tail_ms"] = float64(win.latency.Quantile(tailQ)) / 1e6
	out.detail["latency_samples"] = win.latency.Count()
	out.detail["nominal_rps"] = wl.NominalRPS
	out.detail["nominal_s"] = nom.Seconds()
	out.detail["error_rate"] = win.out.errorRate()
	out.detail["nominal_outcomes"] = win.out
	out.detail["run_outcomes"] = final
	out.detail["origin_fetch_ratio"] = ratio(fetches, reqs)
	out.detail["cpu_us_per_req"] = win.cpuUSPerReq()
	out.detail["replay.offered_ratio"] = ratio(float64(win.offered), wl.NominalRPS*nom.Seconds())
	out.detail["replay.achieved_ratio"] = ratio(float64(win.sent), wl.NominalRPS*nom.Seconds())
	objects := map[string]bool{}
	for i := range recs {
		objects[recs[i].URL] = true
	}
	out.detail["stream_records"] = len(recs)
	out.detail["stream_objects"] = len(objects)
	return out, nil
}

// serveLayers derives the serve per-layer metrics from the traced
// window's spans and counter deltas.
func serveLayers(wl *workload, w *nominalWindow, lt layerTimes, conc int) map[string]float64 {
	reqs := float64(w.out.Sent)
	b, a := w.before, w.after
	hits := float64(a.cache.Hits - b.cache.Hits)
	misses := float64(a.cache.Misses - b.cache.Misses)
	fetches := float64(a.fetches - b.fetches)
	events := float64(a.charEvents - b.charEvents)
	drops := float64(a.charDrops - b.charDrops)
	var maxShare, sum float64
	for i := range a.memberReqs {
		d := float64(a.memberReqs[i] - b.memberReqs[i])
		sum += d
		maxShare = math.Max(maxShare, d)
	}
	skew := ratio(maxShare, sum/float64(len(a.memberReqs)))
	m := map[string]float64{
		"replay.offered_ratio":          ratio(float64(w.offered), wl.NominalRPS*w.dur.Seconds()),
		"replay.service_ms.p50":         float64(w.service.Quantile(0.50)) / 1e6,
		"replay.service_ms.p99":         float64(w.service.Quantile(0.99)) / 1e6,
		"fleet.self_us.p50":             quantile(lt.fleetSelf, 0.50),
		"fleet.self_us.p99":             quantile(lt.fleetSelf, 0.99),
		"fleet.hop_us.p50":              quantile(lt.hop, 0.50),
		"fleet.attempts_per_req":        ratio(float64(lt.attempts), float64(lt.requests)),
		"fleet.node_skew":               skew,
		"edge.self_us.p50":              quantile(lt.edgeSelf, 0.50),
		"edge.self_us.p99":              quantile(lt.edgeSelf, 0.99),
		"edge.hit_ratio":                ratio(hits, hits+misses),
		"edge.evictions_per_kreq":       ratio(float64(a.cache.Evictions-b.cache.Evictions)*1000, reqs),
		"resilience.fetch_ms.p50":       quantile(lt.fetch, 0.50),
		"resilience.fetch_ms.p99":       quantile(lt.fetch, 0.99),
		"resilience.attempts_per_fetch": ratio(float64(a.attempts-b.attempts), fetches),
		"origin.busy_share":             ratio(float64(lt.innerBusyNS), float64(w.dur.Nanoseconds())*float64(conc)),
		"origin.fetch_ratio":            ratio(fetches, reqs),
		"defend.admit_us.p50":           quantile(lt.admit, 0.50),
		"defend.reject_ratio":           ratio(float64(w.out.Rejected), reqs),
		"defend.collapse_ratio":         ratio(float64(lt.collapsed), float64(lt.admits)),
		"livechar.observe_us.p50":       quantile(lt.tap, 0.50),
		"livechar.drop_ratio":           ratio(drops, events+drops),
		"go.gc_cpu_share":               ratio(w.gcCPU, w.totalCPU),
		"go.alloc_kb_per_req":           ratio(w.alloc/1024, reqs),
		"trace.spans_unmatched":         float64(lt.unmatched),
	}
	return m
}
