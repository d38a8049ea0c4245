package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/ingest"
	"repro/internal/logfmt"
)

// corruptAndDecode replaces every strideth line of recs' TSV encoding
// with garbage and decodes the stream through the tolerant ingest
// pipeline, returning the surviving records.
func corruptAndDecode(t *testing.T, recs []logfmt.Record, stride int) ([]logfmt.Record, ingest.Stats) {
	t.Helper()
	var stream []byte
	for i := range recs {
		if i%stride == stride-1 {
			stream = append(stream, "corrupted\tline\n"...)
			continue
		}
		stream = logfmt.AppendTSV(stream, &recs[i])
	}
	var out []logfmt.Record
	stats, err := ingest.Run(context.Background(), bytes.NewReader(stream), logfmt.FormatTSV,
		ingest.PipelineConfig{Options: ingest.Options{MaxErrorRate: 0.05}},
		func(r *logfmt.Record) error {
			out = append(out, *r)
			return nil
		})
	if err != nil {
		t.Fatalf("tolerant decode: %v", err)
	}
	return out, stats
}

func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= tol
}

// TestToleranceCorruptStream runs Figure 1 and Table 2 over a stream
// with ~1% seeded corruption pushed through the tolerant ingest path
// and checks the results stay within a small tolerance of the
// clean-stream run.
func TestToleranceCorruptStream(t *testing.T) {
	r1 := runner()
	short, err := r1.ShortTermRecords()
	if err != nil {
		t.Fatal(err)
	}
	pattern, err := r1.PatternRecords()
	if err != nil {
		t.Fatal(err)
	}
	fig1Clean, err := r1.Figure1(nil)
	if err != nil {
		t.Fatal(err)
	}
	t2Clean, err := r1.Table2(nil)
	if err != nil {
		t.Fatal(err)
	}

	shortTol, shortStats := corruptAndDecode(t, short, 100)
	patternTol, patternStats := corruptAndDecode(t, pattern, 100)
	if shortStats.Quarantined == 0 || patternStats.Quarantined == 0 {
		t.Fatalf("corruption not injected: %+v %+v", shortStats, patternStats)
	}

	r2 := NewRunner(r1.Config())
	r2.UseShortTermRecords(shortTol)
	r2.UsePatternRecords(patternTol)
	fig1Tol, err := r2.Figure1(nil)
	if err != nil {
		t.Fatal(err)
	}
	t2Tol, err := r2.Table2(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Figure 1's trend counters are seeded by config, not the stream.
	if !within(fig1Tol.EndRatio, fig1Clean.EndRatio, 0.01) ||
		!within(fig1Tol.SizeShrink, fig1Clean.SizeShrink, 0.01) {
		t.Errorf("Figure 1 diverged: %+v vs %+v", fig1Tol, fig1Clean)
	}
	// Table 2 loses exactly the quarantined ~1%; every reported shape
	// statistic stays within a few percent of the clean run.
	for _, cmp := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"short records", float64(t2Tol.Short.Records()), float64(t2Clean.Short.Records()), 0.02},
		{"pattern records", float64(t2Tol.Pattern.Records()), float64(t2Clean.Pattern.Records()), 0.02},
		{"short domains", float64(t2Tol.Short.Domains()), float64(t2Clean.Short.Domains()), 0.05},
		{"pattern domains", float64(t2Tol.Pattern.Domains()), float64(t2Clean.Pattern.Domains()), 0.05},
		{"short clients", float64(t2Tol.Short.Clients()), float64(t2Clean.Short.Clients()), 0.05},
		{"short duration", t2Tol.Short.Duration().Seconds(), t2Clean.Short.Duration().Seconds(), 0.05},
		{"pattern duration", t2Tol.Pattern.Duration().Seconds(), t2Clean.Pattern.Duration().Seconds(), 0.05},
	} {
		if !within(cmp.got, cmp.want, cmp.tol) {
			t.Errorf("%s: tolerant %.0f vs clean %.0f exceeds %.0f%% tolerance",
				cmp.name, cmp.got, cmp.want, cmp.tol*100)
		}
	}
	if t2Tol.Short.Records() != t2Clean.Short.Records()-shortStats.Quarantined {
		t.Errorf("short records %d + quarantined %d != clean %d",
			t2Tol.Short.Records(), shortStats.Quarantined, t2Clean.Short.Records())
	}
}

// cancelAfterWriter cancels a context once a marker string flows
// through it, so a RunAll can be interrupted at a deterministic point.
type cancelAfterWriter struct {
	w      io.Writer
	marker string
	cancel context.CancelFunc
}

func (c *cancelAfterWriter) Write(p []byte) (int, error) {
	if strings.Contains(string(p), c.marker) {
		c.cancel()
	}
	return c.w.Write(p)
}

func TestRunAllContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sb strings.Builder
	w := &cancelAfterWriter{w: &sb, marker: "== Table 2 ==", cancel: cancel}
	rep, err := runner().RunAllContext(ctx, w)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep == nil {
		t.Fatal("cancelled run must still return the partial report")
	}
	// The header is printed before the step runs, so Table 2 itself
	// completes; everything after is skipped.
	if got := rep.Completed(); got != 2 {
		t.Errorf("completed %d steps, want 2", got)
	}
	if rep.Steps[0].State != StepCompleted || rep.Steps[1].State != StepCompleted {
		t.Errorf("first two steps %v/%v, want completed", rep.Steps[0].State, rep.Steps[1].State)
	}
	for _, st := range rep.Steps[2:] {
		if st.State != StepSkipped {
			t.Errorf("step %q = %v, want skipped", st.Name, st.State)
		}
	}
	if rep.Figure1.EndRatio == 0 {
		t.Error("completed Figure 1 result missing from partial report")
	}
	var sum strings.Builder
	rep.WriteStepSummary(&sum)
	if !strings.Contains(sum.String(), "skipped") || !strings.Contains(sum.String(), "completed") {
		t.Errorf("step summary missing states:\n%s", sum.String())
	}
}

func TestRunAllStepsLedgerComplete(t *testing.T) {
	rep, err := runner().RunAll(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Completed(); got != len(rep.Steps) || got == 0 {
		t.Errorf("completed %d of %d steps", got, len(rep.Steps))
	}
}
