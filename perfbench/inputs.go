package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ingest"
	"repro/internal/logfmt"
	"repro/internal/synth"
)

// batchConfig is jsonrepro's default experiment configuration at the
// given seed, with one RunAll worker per core.
func batchConfig(seed uint64, wl *workload, jobs int) experiments.Config {
	return experiments.Config{
		Seed:          seed,
		Scale:         wl.Scale,
		PatternTarget: wl.PatternTarget,
		PatternWindow: wl.PatternWindow.D(),
		Permutations:  wl.Permutations,
		SampleBin:     wl.SampleBin.D(),
		Jobs:          jobs,
	}
}

// batchInputs are the two datasets repro-full hands the runner.
type batchInputs struct {
	short, pattern string // .cdnc paths
	records        int64
}

// writeBatchInputs generates the short-term dataset and the pattern
// dataset exactly as the runner would, and writes each as a flate
// chunk container under dir.
func writeBatchInputs(dir string, cfg experiments.Config) (*batchInputs, error) {
	shortCfg := synth.ShortTermConfig(cfg.Seed, cfg.Scale)
	patternCfg := experiments.NewRunner(cfg).PatternConfig()
	in := &batchInputs{
		short:   filepath.Join(dir, "short.cdnc"),
		pattern: filepath.Join(dir, "pattern.cdnc"),
	}
	for _, ds := range []struct {
		path string
		cfg  synth.Config
	}{{in.short, shortCfg}, {in.pattern, patternCfg}} {
		n, err := writeChunked(ds.path, core.SynthSource(ds.cfg))
		if err != nil {
			return nil, err
		}
		in.records += n
	}
	return in, nil
}

// writeChunked streams src into a flate .cdnc file.
func writeChunked(path string, src core.Source) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	n, err := encodeChunked(bw, src)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func encodeChunked(w io.Writer, src core.Source) (int64, error) {
	cw := logfmt.NewChunkWriter(w, logfmt.ChunkConfig{Codec: logfmt.CodecFlate})
	if err := src.Each(cw.Write); err != nil {
		return 0, err
	}
	if err := cw.Close(); err != nil {
		return 0, err
	}
	return cw.Count(), nil
}

// decodeFile decodes a chunk container on the parallel ingest
// pipeline, copying records out of the reused batches.
func decodeFile(path string, workers int) ([]logfmt.Record, ingest.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, ingest.Stats{}, err
	}
	defer f.Close()
	var recs []logfmt.Record
	stats, err := ingest.RunChunks(context.Background(), bufio.NewReaderSize(f, 1<<20),
		ingest.PipelineConfig{Workers: workers}, func(r *logfmt.Record) error {
			recs = append(recs, *r)
			return nil
		})
	return recs, stats, err
}

// serveStreamConfig is the synthetic short-term stream a serve
// workload replays: the §4 preset at the workload's domain count, sized
// so the benign part plus the attack overlay covers need records.
func serveStreamConfig(seed uint64, wl *workload, need int) synth.Config {
	cfg := synth.ShortTermConfig(seed, 1)
	cfg.Domains = wl.StreamDomains
	cfg.Attack = synth.AttackConfig{
		CacheBustShare: wl.Attack.CacheBust,
		FlashShare:     wl.Attack.Flash,
		BotShare:       wl.Attack.Bots,
		AmplifyShare:   wl.Attack.Amplify,
	}
	// The generator lands within ~10% of its target; ask for a third
	// more than needed, and enough to survive the cacheable-GET filter
	// (about half the stream).
	target := float64(need) * 1.35 / (1 + cfg.Attack.Sum())
	if !wl.Churn {
		target *= 2.5
	}
	cfg.TargetRequests = int(target) + 100
	return cfg
}

// serveStream generates the stream in replay (timestamp) order.
func serveStream(seed uint64, wl *workload, need int) ([]logfmt.Record, error) {
	recs, err := core.Collect(core.SynthSource(serveStreamConfig(seed, wl, need)))
	if err != nil {
		return nil, err
	}
	if len(recs) < need {
		return nil, fmt.Errorf("stream has %d records, need %d", len(recs), need)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
	kept := recs[:0]
	for _, r := range recs {
		r.URL = foldHost(r.URL)
		if !wl.Churn && !cacheableGET(&r) {
			continue
		}
		kept = append(kept, r)
	}
	if len(kept) < need {
		return nil, fmt.Errorf("stream has %d usable records, need %d", len(kept), need)
	}
	return kept[:need], nil
}

// cacheableGET reports whether the edge caches r's response: a GET
// outside the paths WildcardOrigin marks uncacheable.
func cacheableGET(r *logfmt.Record) bool {
	p := r.Path()
	return r.Method == "GET" && !strings.HasPrefix(p, "/ingest/") && !strings.HasPrefix(p, "/profile/")
}

// foldHost appends a URL's host to its path ("https://h/a/b?q" becomes
// "https://h/a/b/h?q"). The replay sends every record to the front's
// own host, so without this the same path on different customer
// domains would collapse into one cached object; a host-keyed edge
// keeps them apart. The path prefix, which decides cacheability, and
// the query string are kept.
func foldHost(u string) string {
	i := strings.Index(u, "://")
	if i < 0 {
		return u
	}
	rest := u[i+3:]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return u
	}
	host := rest[:slash]
	base, query, hasQuery := strings.Cut(rest[slash:], "?")
	out := u[:i+3] + host + base + "/" + host
	if hasQuery {
		out += "?" + query
	}
	return out
}
