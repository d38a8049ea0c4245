package ingest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// encodeChunked encodes recs into a chunk container.
func encodeChunked(t testing.TB, recs []logfmt.Record, cfg logfmt.ChunkConfig) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := logfmt.NewChunkWriter(&buf, cfg)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunChunksOrderedDelivery checks the parallel decode pipeline
// delivers every record in stream order despite chunks completing out
// of order on the worker pool.
func TestRunChunksOrderedDelivery(t *testing.T) {
	recs := synthRecords(t, 1000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 37})

	cfg := PipelineConfig{Workers: 4, QueueDepth: 2}
	var got []logfmt.Record
	stats, err := RunChunks(context.Background(), bytes.NewReader(data), cfg, func(r *logfmt.Record) error {
		got = append(got, *r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 1000 || stats.Quarantined != 0 {
		t.Fatalf("stats = %+v, want 1000 records, 0 quarantined", stats)
	}
	if len(got) != len(recs) {
		t.Fatalf("delivered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) || got[i].URL != recs[i].URL || got[i].Bytes != recs[i].Bytes {
			t.Fatalf("record %d out of order or corrupted: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// TestRunChunksChunkGranularityQuarantine flips a byte inside one
// chunk's payload and asserts exactly that chunk's claimed record count
// quarantines — the error budget stays record-denominated — while the
// structured skip metrics record the drop under format="chunk".
func TestRunChunksChunkGranularityQuarantine(t *testing.T) {
	recs := synthRecords(t, 500)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 100})

	// Corrupt the middle of the third chunk's payload: locate it with a
	// scanner, then flip one bit.
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	var rc logfmt.RawChunk
	for i := 0; i < 3; i++ {
		if err := sc.Next(&rc); err != nil {
			t.Fatal(err)
		}
	}
	corrupted := append([]byte(nil), data...)
	corrupted[rc.Offset+24+rc.FrameLen()/2] ^= 0x10

	reg := obs.NewRegistry()
	cfg := PipelineConfig{
		Workers: 4,
		Options: Options{MaxErrorRate: 0.5, Metrics: NewInstrumentation(reg)},
	}
	var got int64
	stats, err := RunChunks(context.Background(), bytes.NewReader(corrupted), cfg, func(r *logfmt.Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 400 || got != 400 {
		t.Fatalf("records = %d (delivered %d), want 400", stats.Records, got)
	}
	if stats.Quarantined != 100 {
		t.Fatalf("quarantined = %d, want the bad chunk's 100 records", stats.Quarantined)
	}
	if stats.FramesDropped != 1 {
		t.Fatalf("framesDropped = %d, want 1", stats.FramesDropped)
	}
	if v := reg.Counter("ingest_dropped_records_total", "format", "chunk").Value(); v != 100 {
		t.Fatalf("ingest_dropped_records_total{format=chunk} = %d, want 100", v)
	}
	if v := reg.Counter("ingest_dropped_frames_total", "format", "chunk").Value(); v != 1 {
		t.Fatalf("ingest_dropped_frames_total{format=chunk} = %d, want 1", v)
	}
	if v := reg.Counter("ingest_quarantined_total").Value(); v != 100 {
		t.Fatalf("ingest_quarantined_total = %d, want 100", v)
	}
}

// TestRunChunksChaosBitFlips drives a chunk container through
// resilience.CorruptingReader and asserts the accounting balances:
// every record is either delivered or quarantined, and bytes skipped by
// resyncs are reported.
func TestRunChunksChaosBitFlips(t *testing.T) {
	recs := synthRecords(t, 2000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 50})

	cr := &resilience.CorruptingReader{
		R:           bytes.NewReader(data),
		Seed:        42,
		BitFlipRate: 1e-4,
		SkipBytes:   6, // protect the file header; aim faults at chunks
	}
	cfg := PipelineConfig{Workers: 4, Options: Options{MaxErrorRate: 0.95, MinRecords: 1}}
	var got int64
	stats, err := RunChunks(context.Background(), cr, cfg, func(r *logfmt.Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Faults() == 0 {
		t.Fatal("chaos injected no faults; raise BitFlipRate")
	}
	if stats.Records != got {
		t.Fatalf("stats.Records = %d, delivered %d", stats.Records, got)
	}
	if stats.Quarantined == 0 {
		t.Fatal("bit flips quarantined nothing")
	}
	// Chunk quarantine drops whole chunks of 50: every record is
	// accounted for exactly once unless framing was lost (then the span's
	// claimed count is unknown and counts as 1).
	if total := stats.Records + stats.Quarantined; total > 2000 {
		t.Fatalf("accounting overflow: %d records + %d quarantined > 2000", stats.Records, stats.Quarantined)
	}
	if stats.FramesDropped == 0 || stats.Resyncs == 0 {
		t.Fatalf("stats = %+v, want dropped frames and resyncs", stats)
	}
	t.Logf("chaos: %d faults -> %+v", cr.Faults(), stats)
}

// TestRunChunksBudget asserts a mostly-corrupt container trips
// ErrBudgetExceeded instead of silently analyzing a remnant.
func TestRunChunksBudget(t *testing.T) {
	recs := synthRecords(t, 1000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 50})

	// Flip a byte in every other chunk payload.
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	corrupted := append([]byte(nil), data...)
	var rc logfmt.RawChunk
	for i := 0; ; i++ {
		err := sc.Next(&rc)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			corrupted[rc.Offset+24+rc.FrameLen()/2] ^= 0x10
		}
	}

	cfg := PipelineConfig{Workers: 2, Options: Options{MaxErrorRate: 0.10, MinRecords: 100}}
	_, err := RunChunks(context.Background(), bytes.NewReader(corrupted), cfg, func(r *logfmt.Record) error { return nil })
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestRunChunksCancellation cancels mid-stream and expects a prompt
// ctx.Canceled with no goroutine leak (the race detector would flag
// one).
func TestRunChunksCancellation(t *testing.T) {
	recs := synthRecords(t, 2000)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 10})

	ctx, cancel := context.WithCancel(context.Background())
	var n int
	_, err := RunChunks(ctx, bytes.NewReader(data), PipelineConfig{Workers: 4}, func(r *logfmt.Record) error {
		n++
		if n == 100 {
			cancel()
		}
		return ctx.Err()
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunChunksFnError propagates the consumer's error with partial
// stats.
func TestRunChunksFnError(t *testing.T) {
	recs := synthRecords(t, 200)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{ChunkRecords: 10})
	boom := errors.New("boom")
	var n int
	stats, err := RunChunks(context.Background(), bytes.NewReader(data), PipelineConfig{}, func(r *logfmt.Record) error {
		n++
		if n == 42 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if stats.Records != 42 {
		t.Fatalf("stats.Records = %d, want 42", stats.Records)
	}
}

// TestRunChunksDeadLetter checks a quarantined chunk lands in the dead
// letter with its position.
func TestRunChunksDeadLetter(t *testing.T) {
	recs := synthRecords(t, 300)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecGzip, ChunkRecords: 100})
	sc := logfmt.NewChunkScanner(bytes.NewReader(data))
	var rc logfmt.RawChunk
	for i := 0; i < 2; i++ {
		if err := sc.Next(&rc); err != nil {
			t.Fatal(err)
		}
	}
	corrupted := append([]byte(nil), data...)
	corrupted[rc.Offset+24+rc.FrameLen()/2] ^= 0x01

	var dead bytes.Buffer
	dl := NewDeadLetter(&dead)
	cfg := PipelineConfig{Options: Options{MaxErrorRate: 0.9, DeadLetter: dl}}
	stats, err := RunChunks(context.Background(), bytes.NewReader(corrupted), cfg, func(r *logfmt.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats.Quarantined != 100 {
		t.Fatalf("quarantined = %d, want 100", stats.Quarantined)
	}
	if !bytes.Contains(dead.Bytes(), []byte(`"format":"chunk"`)) {
		t.Fatalf("dead letter missing chunk entry: %s", dead.Bytes())
	}
}

// TestFileSourceChunkAutoDetect writes a chunk container under a .tsv
// name and checks FileSource routes it to the parallel chunk pipeline
// by magic bytes.
func TestFileSourceChunkAutoDetect(t *testing.T) {
	recs := synthRecords(t, 500)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 64})
	path := filepath.Join(t.TempDir(), "mislabeled.tsv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src := &FileSource{Path: path, Config: PipelineConfig{Workers: 2}}
	var n int
	err := src.Each(func(r *logfmt.Record) error {
		if n < len(recs) && (!r.Time.Equal(recs[n].Time) || r.URL != recs[n].URL) {
			t.Fatalf("record %d out of order", n)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 || src.LastStats.Records != 500 {
		t.Fatalf("delivered %d (stats %+v), want 500", n, src.LastStats)
	}
}

// TestRunChunksInline drives RunChunks at one worker — the same framer,
// decoder, and merge run inline on the caller's goroutine — and asserts
// record-denominated quarantine plus the shared skip metrics.
func TestRunChunksInline(t *testing.T) {
	recs := synthRecords(t, 400)
	data := encodeChunked(t, recs, logfmt.ChunkConfig{Codec: logfmt.CodecFlate, ChunkRecords: 100})
	corrupted, _ := corruptChunks(t, data, 1, 4)

	reg := obs.NewRegistry()
	cfg := PipelineConfig{Workers: 1, Options: Options{MaxErrorRate: 0.5, Metrics: NewInstrumentation(reg)}}
	var n int
	st, err := RunChunks(context.Background(), bytes.NewReader(corrupted), cfg,
		func(r *logfmt.Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 || st.Records != 300 {
		t.Fatalf("delivered %d (stats %+v), want 300", n, st)
	}
	if st.Quarantined != 100 || st.FramesDropped != 1 || st.Resyncs != 1 {
		t.Fatalf("stats = %+v, want 100 quarantined in 1 frame with 1 resync", st)
	}
	if v := reg.Counter("ingest_dropped_records_total", "format", "chunk").Value(); v != 100 {
		t.Fatalf("ingest_dropped_records_total{format=chunk} = %d, want 100", v)
	}
	if v := reg.Counter("ingest_resyncs_total", "format", "chunk").Value(); v != 1 {
		t.Fatalf("ingest_resyncs_total{format=chunk} = %d, want 1", v)
	}
}
