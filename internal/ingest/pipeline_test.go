package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/logfmt"
)

func TestPipelineOrderedDelivery(t *testing.T) {
	recs := synthRecords(t, 2000)
	stream := encodeTSV(recs)
	cfg := PipelineConfig{Workers: 4, QueueDepth: 2, BatchSize: 64}
	var seen int
	stats, err := Run(context.Background(), bytes.NewReader(stream), logfmt.FormatTSV, cfg,
		func(r *logfmt.Record) error {
			if !r.Time.Equal(recs[seen].Time) || r.ClientID != recs[seen].ClientID {
				t.Fatalf("record %d out of order: got client %d at %v, want client %d at %v",
					seen, r.ClientID, r.Time, recs[seen].ClientID, recs[seen].Time)
			}
			seen++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(recs) || stats.Records != int64(len(recs)) {
		t.Errorf("delivered %d (stats %d), want %d", seen, stats.Records, len(recs))
	}
}

func TestPipelineQuarantinesAndBudget(t *testing.T) {
	recs := synthRecords(t, 1000)
	lines := strings.SplitAfter(string(encodeTSV(recs)), "\n")
	corrupt := 0
	for i := 10; i < len(lines)-1; i += 97 { // ~1%
		lines[i] = "x\ty\n"
		corrupt++
	}
	stream := strings.Join(lines, "")
	var dead bytes.Buffer
	cfg := PipelineConfig{Workers: 4, Options: Options{
		MaxErrorRate: 0.05, DeadLetter: NewDeadLetter(&dead)}}
	var seen int64
	stats, err := Run(context.Background(), strings.NewReader(stream), logfmt.FormatTSV, cfg,
		func(*logfmt.Record) error { seen++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != int64(corrupt) {
		t.Errorf("quarantined %d, want %d", stats.Quarantined, corrupt)
	}
	if seen != int64(len(recs)-corrupt) {
		t.Errorf("delivered %d, want %d", seen, len(recs)-corrupt)
	}
	cfg.Options.DeadLetter.Flush()
	if n := bytes.Count(dead.Bytes(), []byte("\n")); n != corrupt {
		t.Errorf("%d dead-letter lines, want %d", n, corrupt)
	}

	// Same stream with every 3rd line corrupt blows the 5% budget.
	for i := 0; i < len(lines)-1; i += 3 {
		lines[i] = "x\ty\n"
	}
	_, err = Run(context.Background(), strings.NewReader(strings.Join(lines, "")),
		logfmt.FormatTSV, PipelineConfig{Options: Options{MaxErrorRate: 0.05}},
		func(*logfmt.Record) error { return nil })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("want ErrBudgetExceeded, got %v", err)
	}
}

func TestPipelineCancellation(t *testing.T) {
	recs := synthRecords(t, 3000)
	stream := encodeTSV(recs)
	ctx, cancel := context.WithCancel(context.Background())
	var seen int64
	stats, err := Run(ctx, bytes.NewReader(stream), logfmt.FormatTSV,
		PipelineConfig{Workers: 2, BatchSize: 16, QueueDepth: 1},
		func(*logfmt.Record) error {
			seen++
			if seen == 100 {
				cancel()
			}
			return nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Partial progress is reported, and bounded: the pipeline can only
	// have a few batches in flight past the cancel point.
	if stats.Records < 100 || stats.Records >= int64(len(recs)) {
		t.Errorf("partial stats.Records = %d, want >= 100 and < %d", stats.Records, len(recs))
	}
}

func TestPipelineConsumerErrorStops(t *testing.T) {
	recs := synthRecords(t, 500)
	boom := errors.New("boom")
	var seen int64
	_, err := Run(context.Background(), bytes.NewReader(encodeTSV(recs)), logfmt.FormatTSV,
		PipelineConfig{BatchSize: 32}, func(*logfmt.Record) error {
			seen++
			if seen == 42 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) || seen != 42 {
		t.Errorf("err=%v seen=%d, want boom at 42", err, seen)
	}
}

func TestPipelineGzipInput(t *testing.T) {
	recs := synthRecords(t, 200)
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(encodeTSV(recs))
	gz.Close()
	stats, err := Run(context.Background(), &buf, logfmt.FormatTSV, PipelineConfig{},
		func(*logfmt.Record) error { return nil })
	if err != nil || stats.Records != int64(len(recs)) {
		t.Errorf("gzip run: records=%d err=%v, want %d, nil", stats.Records, err, len(recs))
	}
}

func TestFileSourceTextAndChunk(t *testing.T) {
	recs := synthRecords(t, 300)
	dir := t.TempDir()

	tsvPath := filepath.Join(dir, "logs.tsv")
	if err := os.WriteFile(tsvPath, encodeTSV(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	chunkPath := filepath.Join(dir, "logs.cdnc")
	data := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 1})
	stream, _ := corruptChunks(t, data, 7, len(recs)) // one corrupt record
	if err := os.WriteFile(chunkPath, stream, 0o644); err != nil {
		t.Fatal(err)
	}

	src := &FileSource{Path: tsvPath}
	var n int64
	if err := src.Each(func(*logfmt.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) || src.LastStats.Records != n {
		t.Errorf("tsv: delivered %d (stats %d), want %d", n, src.LastStats.Records, len(recs))
	}

	src = &FileSource{Path: chunkPath}
	n = 0
	if err := src.Each(func(*logfmt.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)-1) || src.LastStats.Quarantined != 1 {
		t.Errorf("chunk: delivered %d, quarantined %d; want %d and 1",
			n, src.LastStats.Quarantined, len(recs)-1)
	}

	// Cancellation cuts a read short with the context's error, at
	// either worker count.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		src = &FileSource{Path: chunkPath, Ctx: ctx, Config: PipelineConfig{Workers: workers}}
		n = 0
		err := src.Each(func(*logfmt.Record) error {
			n++
			if n == 50 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || n >= int64(len(recs)) {
			t.Errorf("workers=%d: cancelled read: n=%d err=%v", workers, n, err)
		}
	}
}

// TestFileSourceWorkerCountInvariant is the one-decode-path contract:
// for clean and corrupted TSV, JSON Lines, and chunk-container files,
// FileSource delivers identical records and identical Stats at one
// worker and at four.
func TestFileSourceWorkerCountInvariant(t *testing.T) {
	recs := synthRecords(t, 1200)
	tsv := encodeTSV(recs)
	var jsonl []byte
	for i := range recs {
		line, err := logfmt.MarshalJSONLine(&recs[i])
		if err != nil {
			t.Fatal(err)
		}
		jsonl = append(append(jsonl, line...), '\n')
	}
	chunks := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 50})
	badTSV, _ := corruptLines(tsv, 3, 61, "x\ty")
	badJSONL, _ := corruptLines(jsonl, 5, 83, "{bad")
	badChunks, _ := corruptChunks(t, chunks, 2, 9)
	garbled := append(append(append([]byte(nil), chunks[:len(chunks)/3]...),
		bytes.Repeat([]byte{0xF5}, 40)...), chunks[len(chunks)/3:]...)

	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"clean.tsv": tsv, "clean.jsonl": jsonl, "clean.cdnc": chunks,
		"bad.tsv": []byte(badTSV), "bad.jsonl": []byte(badJSONL),
		"bad.cdnc": badChunks, "garbled.cdnc": garbled,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var want []logfmt.Record
		var wantStats Stats
		for _, workers := range []int{1, 4} {
			src := &FileSource{Path: path, Config: PipelineConfig{Workers: workers, BatchSize: 64,
				Options: Options{MaxErrorRate: 0.5}}}
			var got []logfmt.Record
			if err := src.Each(func(r *logfmt.Record) error { got = append(got, *r); return nil }); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if workers == 1 {
				want, wantStats = got, src.LastStats
				if strings.HasPrefix(name, "clean") && (len(got) != len(recs) || wantStats.Quarantined != 0) {
					t.Errorf("%s: %d records, stats %+v; want all %d clean", name, len(got), wantStats, len(recs))
				}
				if !strings.HasPrefix(name, "clean") && wantStats.Quarantined == 0 {
					t.Errorf("%s: nothing quarantined", name)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) || src.LastStats != wantStats {
				t.Errorf("%s: workers=4 delivered %d records with %+v; workers=1 delivered %d with %+v",
					name, len(got), src.LastStats, len(want), wantStats)
			}
		}
	}
}

// TestFileSourceRejectsRetiredFormat checks a .cdnb binary stream,
// plain or gzipped, fails up front with a pointer to its replacement.
func TestFileSourceRejectsRetiredFormat(t *testing.T) {
	stream := append([]byte("CDNJ1"), 0x10, 0x00)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(stream)
	zw.Close()
	dir := t.TempDir()
	for name, data := range map[string][]byte{"old.cdnb": stream, "old.cdnb.gz": gz.Bytes()} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		src := &FileSource{Path: path}
		err := src.Each(func(*logfmt.Record) error { return nil })
		if !errors.Is(err, logfmt.ErrRetiredFormat) || !strings.Contains(err.Error(), "jsongen -o FILE.cdnc") {
			t.Errorf("%s: err = %v, want ErrRetiredFormat naming jsongen -o FILE.cdnc", name, err)
		}
	}
}
