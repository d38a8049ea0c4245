package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/logfmt"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true}, // 9.99 beyond p99: not enough
		{1000, 0.99, true},
		{10000, 0.999, true},
		{99999, 0.999, true},
		{100000, 0.9999, true},
	} {
		got, ok := tailQuantile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func ladderOf(limit float64, rs ...rung) []rung {
	for i := range rs {
		if rs[i].Achieved == 0 {
			rs[i].Achieved = rs[i].Rate
		}
		rs[i].judge(limit)
	}
	return rs
}

func TestSLORPS(t *testing.T) {
	const limit = 20
	for _, tc := range []struct {
		name   string
		rungs  []rung
		want   float64
		capped bool
	}{
		{"interpolated", ladderOf(limit, rung{Rate: 1000, P99MS: 5}, rung{Rate: 2000, P99MS: 10}, rung{Rate: 3000, P99MS: 30}), 2500, false},
		{"no pass", ladderOf(limit, rung{Rate: 1000, P99MS: 25}, rung{Rate: 2000, P99MS: 40}), 0, false},
		{"all pass", ladderOf(limit, rung{Rate: 1000, P99MS: 5}, rung{Rate: 2000, P99MS: 6}), 2000, true},
		{"later rung passing again is ignored", ladderOf(limit, rung{Rate: 1000, P99MS: 5}, rung{Rate: 2000, P99MS: 35}, rung{Rate: 3000, P99MS: 8}), 1500, false},
		{"failed on errors, not latency", ladderOf(limit, rung{Rate: 1000, P99MS: 5}, rung{Rate: 2000, P99MS: 9, Failed: 1}), 1000, false},
		{"fell behind", ladderOf(limit, rung{Rate: 1000, P99MS: 5}, rung{Rate: 2000, P99MS: 9, Achieved: 1500}), 1000, false},
		{"empty", nil, 0, false},
	} {
		got, capped := sloRPS(tc.rungs, limit)
		if math.Abs(got-tc.want) > 1e-9 || capped != tc.capped {
			t.Errorf("%s: sloRPS = %v, %v; want %v, %v", tc.name, got, capped, tc.want, tc.capped)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}, {150, 160}}, 20},
		{"clipped to parent", []interval{{50, 120}, {180, 260}}, 60},
		{"outside", []interval{{0, 50}, {300, 400}}, 100},
		{"adjacent", []interval{{100, 150}, {150, 200}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeAttachesSpans(t *testing.T) {
	// One request: fleet ⊃ attempt ⊃ edge on member 1, whose admit,
	// tap and origin fetch (⊃ inner attempt) are its children. A
	// concurrent request for the same URL on member 0 must not steal
	// the member-1 children.
	url, path := "http://front/a/h", "/a/h"
	spans := []span{
		{Req: 7, Layer: lFleet, Member: -1, Start: 0, End: 1000},
		{Req: 7, Layer: lAttempt, Member: -1, Start: 100, End: 900},
		{Req: 7, Layer: lEdge, Member: 1, URL: url, Path: path, Start: 200, End: 800},
		{Req: 7, Layer: lAdmit, Member: 1, Start: 210, End: 230},
		{Layer: lResilient, Member: 1, Path: path, Start: 300, End: 700},
		{Layer: lInner, Member: 1, Path: path, Start: 310, End: 690},
		{Layer: lTap, Member: 1, URL: url, Start: 750, End: 760},
		{Req: 8, Layer: lEdge, Member: 0, URL: url, Path: path, Start: 250, End: 900},
		{Layer: lTap, Member: 3, URL: url, Start: 10, End: 20}, // no edge span
	}
	lt := analyze(spans)
	if lt.requests != 1 || lt.attempts != 1 || lt.admits != 1 || len(lt.fetch) != 1 || len(lt.tap) != 2 {
		t.Fatalf("counts: %+v", lt)
	}
	if got, want := lt.fleetSelf, []float64{0.2}; !floatsEqual(got, want) {
		t.Errorf("fleet self = %v µs, want %v", got, want)
	}
	if got, want := lt.hop, []float64{0.2}; !floatsEqual(got, want) {
		t.Errorf("hop = %v µs, want %v", got, want)
	}
	// Edge 600 ns minus admit 20, fetch 400, tap 10. The member-0 edge
	// span has no children.
	if got, want := lt.edgeSelf, []float64{0.17, 0.65}; !floatsEqual(got, want) {
		t.Errorf("edge self = %v µs, want %v", got, want)
	}
	if lt.innerBusyNS != 380 || lt.unmatched != 1 {
		t.Errorf("inner busy %d ns, unmatched %d; want 380, 1", lt.innerBusyNS, lt.unmatched)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

func TestClassifyAndErrorRate(t *testing.T) {
	const json = "application/json; charset=utf-8"
	for _, tc := range []struct {
		status   int
		xcache   string
		ctype    string
		allow429 bool
		want     verdict
	}{
		{200, "HIT", json, false, vOK},
		{200, "MISS", "application/json", true, vOK},
		{200, "", json, false, vBadHeader},
		{200, "HIT", "text/html", false, vBadHeader},
		{429, "", json, true, vRejected},
		{429, "", json, false, vBadStatus},
		{404, "NEGATIVE", json, true, vBadStatus},
		{502, "", json, true, vStatus5xx},
		{503, "", json, false, vStatus5xx},
	} {
		if got := classify(tc.status, tc.xcache, tc.ctype, tc.allow429); got != tc.want {
			t.Errorf("classify(%d, %q, %q, %v) = %d, want %d", tc.status, tc.xcache, tc.ctype, tc.allow429, got, tc.want)
		}
	}
	o := outcomes{Sent: 1000, Transport: 2, Status5xx: 3, Rejected: 50, BadStatus: 1, BadHeader: 1, BadBody: 3}
	if o.failed() != 10 || o.incorrect() != 5 {
		t.Errorf("failed %d incorrect %d, want 10 and 5", o.failed(), o.incorrect())
	}
	if got := o.errorRate(); got != 0.01 {
		t.Errorf("error rate = %v, want 0.01 (429s kept apart)", got)
	}
	if got := (outcomes{}).errorRate(); got != 0 {
		t.Errorf("error rate of nothing = %v", got)
	}
	d := o.minus(outcomes{Sent: 400, Rejected: 10, Transport: 2})
	if d.Sent != 600 || d.Rejected != 40 || d.Transport != 0 || d.failed() != 8 {
		t.Errorf("minus = %+v", d)
	}
}

func TestCheckingTransport(t *testing.T) {
	srv := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(reqIDHeader) == "" {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		switch r.URL.Path {
		case "/ok":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "HIT")
			w.Write([]byte(`{"a":1}`))
		case "/notjson":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "HIT")
			w.Write([]byte(`plain`))
		case "/limited":
			w.WriteHeader(http.StatusTooManyRequests)
		}
	})
	ct := &checkingTransport{base: handlerTransport{srv}, allow429: true}
	client := &http.Client{Transport: ct}
	for _, p := range []string{"/ok", "/ok", "/notjson", "/limited"} {
		resp, err := client.Get("http://x" + p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	got := ct.snapshot()
	want := outcomes{Sent: 4, Rejected: 1, BadBody: 1}
	if got != want {
		t.Errorf("outcomes = %+v, want %+v", got, want)
	}
}

// handlerTransport serves requests in process.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func TestBatchInputsDeterministic(t *testing.T) {
	wl := &workload{Scale: 0.0002, PatternTarget: 3000, PatternWindow: duration(20 * time.Minute), Permutations: 5, SampleBin: duration(2 * time.Second)}
	gen := func(seed uint64) [2][]byte {
		dir := t.TempDir()
		in, err := writeBatchInputs(dir, batchConfig(seed, wl, 1))
		if err != nil {
			t.Fatal(err)
		}
		var out [2][]byte
		for i, p := range []string{in.short, in.pattern} {
			if out[i], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b, c := gen(3), gen(3), gen(4)
	for i, name := range []string{"short", "pattern"} {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("%s: same seed gave different bytes", name)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Errorf("%s: different seeds gave identical bytes", name)
		}
	}

	// The containers decode back to exactly the generated records.
	dir := t.TempDir()
	cfg := batchConfig(3, wl, 1)
	in, err := writeBatchInputs(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recs, stats, err := decodeFile(filepath.Join(dir, "pattern.cdnc"), 2)
	if err != nil || stats.Quarantined != 0 {
		t.Fatalf("decode: %v, %+v", err, stats)
	}
	want, err := core.Collect(core.SynthSource(experiments.NewRunner(cfg).PatternConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) || in.records < int64(len(want)) {
		t.Fatalf("decoded %d records, generated %d", len(recs), len(want))
	}
	for i := range want {
		a, b := recs[i], want[i]
		if !a.Time.Equal(b.Time) {
			t.Fatalf("record %d time %v, want %v", i, a.Time, b.Time)
		}
		a.Time, b.Time = time.Time{}, time.Time{}
		if a != b {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestServeStreamDeterministic(t *testing.T) {
	for _, name := range []string{"serve-hot", "serve-churn"} {
		wl, _, err := loadConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		encode := func(seed uint64) []byte {
			recs, err := serveStream(seed, wl, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 2000 {
				t.Fatalf("%s: %d records", name, len(recs))
			}
			var buf bytes.Buffer
			if _, err := encodeChunked(&buf, core.MemorySource(recs)); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		a, b, c := encode(5), encode(5), encode(6)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave identical streams", name)
		}
	}
}

func TestFoldHost(t *testing.T) {
	for in, want := range map[string]string{
		"https://api.example.com/v1/feed/1": "https://api.example.com/v1/feed/1/api.example.com",
		"https://h.io/ingest/ch1?cb=9":      "https://h.io/ingest/ch1/h.io?cb=9",
		"https://h.io/":                     "https://h.io//h.io",
		"no-scheme":                         "no-scheme",
		"https://bare.host":                 "https://bare.host",
	} {
		if got := foldHost(in); got != want {
			t.Errorf("foldHost(%q) = %q, want %q", in, got, want)
		}
	}
	r := logfmt.Record{Method: "GET", URL: foldHost("https://h.io/ingest/x")}
	if cacheableGET(&r) {
		t.Error("a folded /ingest/ path must stay uncacheable")
	}
}

func TestUnderBusy(t *testing.T) {
	// Two workers over [0,100): both busy in [20,60), one in [10,20)
	// and [60,80).
	ivs := []interval{{10, 60}, {20, 80}}
	if got := underBusy(ivs, 100, 2); got != 60 {
		t.Errorf("underBusy = %d, want 60", got)
	}
	if got := underBusy(ivs, 100, 1); got != 30 {
		t.Errorf("underBusy(k=1) = %d, want 30", got)
	}
}

// TestBenchmarkJSONMatches keeps the benchmark definition at the
// repository root in step with the metrics and workloads this program
// prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if _, _, err := loadConfig(w.Name); err != nil {
			t.Error(err)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), printed %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
}

func TestCheckReport(t *testing.T) {
	rep := &experiments.Report{Steps: []experiments.StepStatus{
		{Name: "Figure 4 and §4 cacheability", State: experiments.StepCompleted},
		{Name: "Regional vantages (§7 limitation)", State: experiments.StepSkipped},
		{Name: "Resilience under origin faults (robustness)", State: experiments.StepCompleted},
	}}
	rep.Figure4.UncacheableShare = 0.71 // the paper-shape band is [0.4, 0.7]
	rep.Figure4.NeverShare = 0.5
	rep.Figure4.CacheableByCategory = map[string]float64{"News/Media": 0.8, "Financial Service": 0.1}
	rep.Resilience.BaselineAvailability, rep.Resilience.ResilientAvailability = 0.9, 0.99
	checks := checkReport(rep)
	if len(checks) != 3 {
		t.Fatalf("%d checks", len(checks))
	}
	if checks[0].OK || checks[0].Why == "" {
		t.Errorf("figure 4 outside its band passed: %+v", checks[0])
	}
	if checks[1].OK || checks[1].Why != "step did not complete" {
		t.Errorf("skipped step passed: %+v", checks[1])
	}
	if !checks[2].OK {
		t.Errorf("resilience within bounds failed: %+v", checks[2])
	}
}

func TestPlantedFlows(t *testing.T) {
	rec := func(url string, id uint64, ua string) logfmt.Record {
		return logfmt.Record{URL: url, ClientID: id, UserAgent: ua}
	}
	recs := []logfmt.Record{
		rec("https://a.example/poll/ch1", 1, "x"),
		rec("https://a.example/poll/ch1", 1, "x"), // the same flow again
		rec("https://a.example/poll/ch1", 1, "y"), // same ID, other agent
		rec("https://a.example/poll/ch1?t=9", 2, "x"),
		rec("https://b.example/ingest/ch2", 3, "x"),
		rec("https://b.example/ingest/ch2/extra", 4, "x"), // not a target
		rec("https://b.example/ingest/events", 5, "x"),
		rec("https://c.example/api/poll/ch3", 6, "x"),
	}
	targets, clients := plantedFlows(recs)
	if targets != 2 || clients != 4 {
		t.Errorf("plantedFlows = %d targets, %d clients; want 2, 4", targets, clients)
	}
}
