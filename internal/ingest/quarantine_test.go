package ingest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/synth"
)

// synthRecords generates a small synthetic stream deterministically.
func synthRecords(t testing.TB, n int) []logfmt.Record {
	t.Helper()
	cfg := synth.ShortTermConfig(7, 0.0005)
	var recs []logfmt.Record
	err := synth.Generate(cfg, func(r *logfmt.Record) error {
		if len(recs) >= n {
			return nil
		}
		recs = append(recs, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < n {
		t.Fatalf("synth produced %d records, want %d", len(recs), n)
	}
	return recs[:n]
}

func encodeTSV(recs []logfmt.Record) []byte {
	var buf []byte
	for i := range recs {
		buf = logfmt.AppendTSV(buf, &recs[i])
	}
	return buf
}

// corruptLines replaces every strideth line of stream, starting at
// first, with text that does not parse, returning the stream and the
// number of lines replaced.
func corruptLines(stream []byte, first, stride int, garbage string) (string, int) {
	lines := strings.SplitAfter(string(stream), "\n")
	n := 0
	for i := first; i < len(lines)-1; i += stride {
		lines[i] = garbage + "\n"
		n++
	}
	return strings.Join(lines, ""), n
}

// corruptChunks flips one payload byte in chunk first and every
// strideth chunk after it, returning the stream and the records the
// corrupted chunks held.
func corruptChunks(t testing.TB, data []byte, first, stride int) ([]byte, int64) {
	t.Helper()
	out := append([]byte(nil), data...)
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	var rc logfmt.RawChunk
	var lost int64
	for i := 0; ; i++ {
		err := sc.Next(&rc)
		if err == io.EOF {
			return out, lost
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= first && (i-first)%stride == 0 {
			out[rc.Offset+24+int64(len(rc.Payload))/2] ^= 0x10
			lost += int64(rc.Records)
		}
	}
}

// TestRunTSVQuarantineDeadLetter checks bad lines quarantine one record
// each, at either worker count, into positional dead-letter entries.
func TestRunTSVQuarantineDeadLetter(t *testing.T) {
	recs := synthRecords(t, 300)
	// Corrupt every 50th line (6 of 300 = 2%).
	stream, corrupt := corruptLines(encodeTSV(recs), 0, 50, "garbage line that is not TSV")

	for _, workers := range []int{1, 4} {
		var dead bytes.Buffer
		dl := NewDeadLetter(&dead)
		cfg := PipelineConfig{Workers: workers, BatchSize: 32,
			Options: Options{MaxErrorRate: 0.05, DeadLetter: dl}}
		var got int
		st, err := Run(context.Background(), strings.NewReader(stream), logfmt.FormatTSV, cfg,
			func(*logfmt.Record) error { got++; return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Quarantined != int64(corrupt) || dl.Count() != int64(corrupt) {
			t.Errorf("workers=%d: quarantined %d (dead letter %d), want %d",
				workers, st.Quarantined, dl.Count(), corrupt)
		}
		if got != len(recs)-corrupt || st.Records != int64(got) {
			t.Errorf("workers=%d: recovered %d records (stats %d), want %d",
				workers, got, st.Records, len(recs)-corrupt)
		}
		// Dead-letter entries are positional JSON lines.
		dl.Flush()
		sc := bufio.NewScanner(&dead)
		var entries []Quarantine
		for sc.Scan() {
			var q Quarantine
			if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
				t.Fatalf("bad dead-letter line %q: %v", sc.Text(), err)
			}
			entries = append(entries, q)
		}
		if len(entries) != corrupt {
			t.Fatalf("workers=%d: %d dead-letter entries, want %d", workers, len(entries), corrupt)
		}
		if e := entries[0]; e.Format != "tsv" || e.Offset != 0 || e.Record != 0 || e.Reason == "" {
			t.Errorf("first entry %+v, want tsv record 0 at offset 0 with a reason", e)
		}
		if e := entries[1]; e.Record != 50 {
			t.Errorf("second entry at record %d, want 50", e.Record)
		}
	}
}

// TestRunTSVFramesDropped is the text pipeline's span accounting: every
// bad line is one dropped frame as well as one quarantined record, and
// the worker count changes nothing that is delivered or counted.
func TestRunTSVFramesDropped(t *testing.T) {
	recs := synthRecords(t, 400)
	stream, corrupt := corruptLines(encodeTSV(recs), 7, 100, "not\ta\tvalid\tline")
	if corrupt != 4 {
		t.Fatalf("corrupted %d lines, want 4", corrupt)
	}
	var want []logfmt.Record
	var wantStats Stats
	for _, workers := range []int{1, 4} {
		var got []logfmt.Record
		st, err := Run(context.Background(), strings.NewReader(stream), logfmt.FormatTSV,
			PipelineConfig{Workers: workers, BatchSize: 64},
			func(r *logfmt.Record) error { got = append(got, *r); return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Quarantined != 4 || st.FramesDropped != 4 {
			t.Errorf("workers=%d: quarantined %d, frames dropped %d; want 4 and 4",
				workers, st.Quarantined, st.FramesDropped)
		}
		if want == nil {
			want, wantStats = got, st
			continue
		}
		if !reflect.DeepEqual(got, want) || st != wantStats {
			t.Errorf("workers=%d delivered %d records with %+v; workers=1 delivered %d with %+v",
				workers, len(got), st, len(want), wantStats)
		}
	}
}

// TestRunChunksAccurateAccounting corrupts 1.5% of a one-record-per-
// chunk container inside its payloads: framing stays intact, so each
// injected fault quarantines exactly one record with a zero-byte resync.
func TestRunChunksAccurateAccounting(t *testing.T) {
	recs := synthRecords(t, 400)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecRaw, ChunkRecords: 1})
	stream, injected := corruptChunks(t, data, 3, 67)
	if float64(injected)/float64(len(recs)) < 0.01 {
		t.Fatalf("test needs >= 1%% corruption, got %d/%d", injected, len(recs))
	}

	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		cfg := PipelineConfig{Workers: workers,
			Options: Options{MaxErrorRate: 0.05, Metrics: NewInstrumentation(reg)}}
		var got int64
		st, err := RunChunks(context.Background(), bytes.NewReader(stream), cfg,
			func(*logfmt.Record) error { got++; return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Quarantined != injected {
			t.Errorf("workers=%d: quarantined %d, want exactly %d", workers, st.Quarantined, injected)
		}
		if got != int64(len(recs))-injected {
			t.Errorf("workers=%d: recovered %d, want %d", workers, got, int64(len(recs))-injected)
		}
		if st.Resyncs != injected {
			t.Errorf("workers=%d: resyncs %d, want %d (one per quarantined frame)", workers, st.Resyncs, injected)
		}
		if st.BytesSkipped != 0 {
			t.Errorf("workers=%d: skipped %d bytes, want 0 (framing intact)", workers, st.BytesSkipped)
		}
		// Counters mirror the stats.
		if v := reg.Counter("ingest_quarantined_total").Value(); v != injected {
			t.Errorf("workers=%d: ingest_quarantined_total = %d, want %d", workers, v, injected)
		}
		if v := reg.Counter("ingest_records_total").Value(); v != got {
			t.Errorf("workers=%d: ingest_records_total = %d, want %d", workers, v, got)
		}
	}
}

func TestRunBudgetFailsFastWithPosition(t *testing.T) {
	recs := synthRecords(t, 200)
	stream, _ := corruptLines(encodeTSV(recs), 0, 5, "x\ty") // 20% corrupt
	for _, workers := range []int{1, 4} {
		cfg := PipelineConfig{Workers: workers, BatchSize: 16,
			Options: Options{MaxErrorRate: 0.05, MinRecords: 50}}
		st, err := Run(context.Background(), strings.NewReader(stream), logfmt.FormatTSV, cfg,
			func(*logfmt.Record) error { return nil })
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers=%d: want ErrBudgetExceeded, got %v", workers, err)
		}
		for _, want := range []string{"byte", "record", "budget"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("budget error %q should mention %q", err, want)
			}
		}
		// Fails fast: the budget trips within the grace window's
		// neighborhood, not after draining the stream.
		if total := st.Records + st.Quarantined; total > 80 {
			t.Errorf("workers=%d: read %d records before failing, want fail-fast near MinRecords=50", workers, total)
		}
	}
}

func TestRunChunksChaosGarbageInsertion(t *testing.T) {
	recs := synthRecords(t, 1000)
	clean := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecRaw, ChunkRecords: 1})
	for _, workers := range []int{1, 4} {
		cr := &resilience.CorruptingReader{
			R:           bytes.NewReader(clean),
			Seed:        99,
			GarbageRate: 0.0003, // a few dozen garbage runs across the stream
			GarbageLen:  24,
			SkipBytes:   6, // keep the file header intact
		}
		var got int64
		st, err := RunChunks(context.Background(), cr, PipelineConfig{Workers: workers,
			Options: Options{MaxErrorRate: 0.25}}, func(r *logfmt.Record) error {
			if verr := r.Validate(); verr != nil {
				t.Fatalf("surviving record invalid: %v", verr)
			}
			got++
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: pipeline did not survive chaos: %v (stats %+v)", workers, err, st)
		}
		if cr.Faults() == 0 {
			t.Fatal("chaos reader injected nothing; raise GarbageRate")
		}
		if st.Quarantined == 0 {
			t.Error("no quarantines despite injected garbage")
		}
		// Most of the stream must survive: each garbage run can take out a
		// handful of adjacent records, never whole swaths.
		if got < int64(len(recs))*8/10 {
			t.Errorf("workers=%d: recovered only %d of %d records", workers, got, len(recs))
		}
		if st.Records != got {
			t.Errorf("stats.Records = %d, delivered %d", st.Records, got)
		}
	}
}

func TestRunChunksChaosTruncation(t *testing.T) {
	recs := synthRecords(t, 100)
	clean := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecRaw, ChunkRecords: 1})
	for _, workers := range []int{1, 4} {
		cr := &resilience.CorruptingReader{
			R:          bytes.NewReader(clean),
			Seed:       5,
			TruncateAt: int64(len(clean)) * 2 / 3, // mid-chunk EOF
		}
		var got int64
		st, err := RunChunks(context.Background(), cr, PipelineConfig{Workers: workers,
			Options: Options{MaxErrorRate: 0.25}}, func(*logfmt.Record) error { got++; return nil })
		if err != nil {
			t.Fatalf("workers=%d: truncated stream should end cleanly, got %v", workers, err)
		}
		if got == 0 || got >= int64(len(recs)) {
			t.Errorf("workers=%d: recovered %d records from a truncated stream of %d", workers, got, len(recs))
		}
		if st.Quarantined != 1 {
			t.Errorf("workers=%d: quarantined %d, want exactly 1 (the cut record)", workers, st.Quarantined)
		}
	}
}

func TestFileSourceTolerant(t *testing.T) {
	recs := synthRecords(t, 50)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 1})
	stream, _ := corruptChunks(t, data, 10, len(recs))
	path := t.TempDir() + "/logs.cdnc"
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Path: path}
	var got int
	if err := src.Each(func(*logfmt.Record) error { got++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != len(recs)-1 || src.LastStats.Quarantined != 1 {
		t.Errorf("got %d records, %d quarantined; want %d and 1",
			got, src.LastStats.Quarantined, len(recs)-1)
	}
}

func TestDeadLetterNilSafe(t *testing.T) {
	var d *DeadLetter
	if err := d.Write(Quarantine{}); err != nil || d.Count() != 0 || d.Flush() != nil {
		t.Error("nil DeadLetter should be a counting no-op")
	}
	dd := NewDeadLetter(nil)
	dd.Write(Quarantine{Reason: "x"})
	if dd.Count() != 1 {
		t.Errorf("count-only dead letter Count = %d, want 1", dd.Count())
	}
}

func TestStatsErrorRate(t *testing.T) {
	if r := (Stats{}).ErrorRate(); r != 0 {
		t.Errorf("empty ErrorRate = %v", r)
	}
	if r := (Stats{Records: 95, Quarantined: 5}).ErrorRate(); r != 0.05 {
		t.Errorf("ErrorRate = %v, want 0.05", r)
	}
}
