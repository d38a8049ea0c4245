package ingest

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/logfmt"
)

// FuzzPipeline checks that the decode pipeline, fed arbitrary bytes as
// a chunk container and as both text formats, never panics, never
// loops, keeps its accounting consistent with what it delivers, and
// counts the same at one worker and at two.
func FuzzPipeline(f *testing.F) {
	recs := make([]logfmt.Record, 3)
	base := logfmt.Record{Method: "GET", URL: "https://api.example.com/v1",
		MIMEType: "application/json", Status: 200, Bytes: 512, Cache: logfmt.CacheHit}
	for i := range recs {
		recs[i] = base
		recs[i].ClientID = uint64(i)
	}
	var chunks bytes.Buffer
	w := logfmt.NewChunkWriter(&chunks, logfmt.ChunkConfig{Codec: logfmt.CodecRaw, ChunkRecords: 2})
	for i := range recs {
		w.Write(&recs[i])
	}
	w.Close()
	f.Add(chunks.Bytes())
	var tsv []byte
	for i := range recs {
		tsv = logfmt.AppendTSV(tsv, &recs[i])
	}
	f.Add(tsv)
	f.Add([]byte("CDNJ1"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x81}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		runs := map[string]func(PipelineConfig, func(*logfmt.Record) error) (Stats, error){
			"chunk": func(cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
				return RunChunks(context.Background(), bytes.NewReader(data), cfg, fn)
			},
		}
		// Gzip framing belongs to the decompressor, whose errors are I/O
		// errors the pipeline reports as they are, so the text runs skip
		// gzip-magic input.
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			for _, format := range []logfmt.Format{logfmt.FormatTSV, logfmt.FormatJSONL} {
				runs[format.Name()] = func(cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
					return Run(context.Background(), bytes.NewReader(data), format, cfg, fn)
				}
			}
		}
		for name, run := range runs {
			var first Stats
			for _, workers := range []int{1, 2} {
				cfg := PipelineConfig{Workers: workers, BatchSize: 4,
					Options: Options{MaxErrorRate: 0.9, MinRecords: 8}}
				var delivered int64
				st, err := run(cfg, func(*logfmt.Record) error { delivered++; return nil })
				if st.Records != delivered {
					t.Fatalf("%s workers=%d: stats.Records = %d, delivered %d", name, workers, st.Records, delivered)
				}
				retired := errors.Is(err, logfmt.ErrRetiredFormat) && st == (Stats{})
				if err != nil && !errors.Is(err, ErrBudgetExceeded) && !retired {
					t.Fatalf("%s workers=%d: run ended with unexpected error: %v", name, workers, err)
				}
				if workers == 1 {
					first = st
				} else if st != first {
					t.Fatalf("%s: workers=2 stats %+v, workers=1 %+v", name, st, first)
				}
			}
		}
	})
}
