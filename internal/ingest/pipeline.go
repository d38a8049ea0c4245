package ingest

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// PipelineConfig sizes the bounded decode pipeline. Every stage is
// connected by bounded channels, so a slow consumer backpressures the
// reader instead of ballooning memory: at most
// (QueueDepth*2 + Workers) decode units are in flight at once.
type PipelineConfig struct {
	// Workers is the decode fan-out (default GOMAXPROCS). 1 runs the
	// same framer, decoder, and merge inline on the caller's goroutine.
	Workers int
	// QueueDepth is the capacity, in decode units, of each bounded
	// channel (default 4).
	QueueDepth int
	// BatchSize is the number of lines in one text decode unit
	// (default 256). A chunk-container unit is always one chunk.
	BatchSize int
	// Options governs quarantine and the error budget.
	Options Options
}

func (c *PipelineConfig) sanitize() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	c.Options.sanitize()
}

// Run streams text-format records (TSV or JSON Lines, gzip detected by
// magic bytes) from r through the decode pipeline to fn. It returns the
// accounting even on error. Cancelling ctx stops the run with ctx's
// error; fn's first error also stops it.
func Run(ctx context.Context, r io.Reader, format logfmt.Format, cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
	cfg.sanitize()
	br, err := newLineReader(r)
	if err != nil {
		return Stats{}, err
	}
	return runPipeline(ctx, &textFramer{br: br, format: format, batch: cfg.BatchSize}, cfg, fn)
}

// RunChunks streams a chunk-container log from r through the decode
// pipeline to fn. The framer only validates chunk headers; workers
// decompress, checksum, and decode whole chunks, each with its own
// logfmt.ChunkDecoder whose inflater, scratch buffer, and interner
// persist across chunks. Decode units, with their payload and record
// buffers, recycle through a free list, so steady-state ingest
// allocates nothing per chunk; records reach fn as pointers into a
// reused batch (observers copy what they retain, per the core.Source
// contract).
//
// Corruption quarantines at chunk granularity: a chunk that fails its
// header CRC, payload CRC, or record decode loses its claimed record
// count and the framer resyncs to the next validated chunk header.
func RunChunks(ctx context.Context, r io.Reader, cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
	cfg.sanitize()
	sc := logfmt.NewChunkScanner(r)
	return runPipeline(ctx, &chunkFramer{sc: sc, own: cfg.Workers > 1}, cfg, fn)
}

// unit is one decode unit — a batch of lines or one chunk frame — on
// its way from the framer through a decoder to the merge stage. Units
// recycle, so every slice in one is reused scratch.
type unit struct {
	seq int64
	// bytes is the stream bytes the unit spans.
	bytes int64

	// Text framer output: the batch's lines back to back with their
	// newlines stripped, each line's end in text, its stream offset,
	// and the record index of the first line.
	text    []byte
	ends    []int
	offsets []int64
	index   int64

	// Chunk framer output: the frame, its payload in payload when the
	// unit owns a copy.
	rc      logfmt.RawChunk
	payload []byte

	// Decoder (and, for lost framing, framer) output: the decoded
	// records and the quarantined spans among them.
	recs []logfmt.Record
	bad  []badSpan
}

// badSpan is one quarantined span of a unit, positioned before recs[at].
type badSpan struct {
	at int
	de *logfmt.DecodeError
	// lost is the records the span held.
	lost int64
	// resync marks a chunk-container span (the framer stands on the
	// next chunk boundary after it, skipped bytes past its end).
	resync  bool
	skipped int64
}

// framer cuts the input stream into decode units, in stream order. It
// runs on one goroutine.
type framer interface {
	// next fills u with the next unit, returning io.EOF at end of
	// stream. A framer that meets an I/O error mid-unit returns the
	// partial unit first and the error on the next call.
	next(u *unit) error
	// newDecoder returns the decode function of one worker.
	newDecoder() func(*unit)
	// tally reports the stream bytes consumed and the records framed.
	tally() (bytes, records int64)
}

// runPipeline drives fr's units through per-worker decoders to the one
// merge stage, which owns ordering, quarantine accounting, the dead
// letter, the error budget, and metrics. The three stages report as
// child spans of the caller's span (see obs.ContextWithSpan); untraced
// callers get nil no-op spans. With more than one worker the stages
// overlap in time — that overlap is the pipeline's parallelism, and a
// trace export renders it as adjacent lanes.
func runPipeline(ctx context.Context, fr framer, cfg PipelineConfig, fn func(*logfmt.Record) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m := cfg.Options.Metrics
	parent := obs.SpanFromContext(ctx)
	readSp := parent.Child("ingest read+split")
	decodeSp := parent.Child("ingest decode")
	deliverSp := parent.Child("ingest deliver")
	mg := &merger{fn: fn, opts: cfg.Options}
	defer func() {
		deliverSp.AddRecords(mg.stats.Records)
		deliverSp.End()
	}()
	endRead := func() {
		bytes, records := fr.tally()
		readSp.AddBytes(bytes)
		readSp.AddRecords(records)
		readSp.End()
	}
	decode := func(dec func(*unit), u *unit) {
		t0 := time.Now()
		dec(u)
		if m != nil {
			m.DecodeSeconds.Observe(time.Since(t0).Seconds())
		}
		decodeSp.AddRecords(int64(len(u.recs)))
		decodeSp.AddBytes(u.bytes)
	}
	next := func(u *unit) error {
		u.recs, u.bad = u.recs[:0], u.bad[:0]
		return fr.next(u)
	}

	if cfg.Workers == 1 {
		defer decodeSp.End()
		defer endRead()
		dec := fr.newDecoder()
		u := new(unit)
		for {
			if err := ctx.Err(); err != nil {
				return mg.stats, err
			}
			if err := next(u); err != nil {
				if err == io.EOF {
					err = nil
				}
				return mg.stats, err
			}
			decode(dec, u)
			if err := mg.deliver(u); err != nil {
				return mg.stats, err
			}
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan *unit, cfg.QueueDepth)
	results := make(chan *unit, cfg.QueueDepth)
	// At most queue+workers units are in flight, so the free list never
	// blocks and steady-state ingest reuses every unit's buffers.
	free := make(chan *unit, cfg.QueueDepth*2+cfg.Workers+2)

	// Stage 1: frame units, in stream order.
	var frameErr error
	go func() {
		defer close(work)
		defer endRead()
		for seq := int64(0); ; seq++ {
			var u *unit
			select {
			case u = <-free:
			default:
				u = new(unit)
			}
			u.seq = seq
			if err := next(u); err != nil {
				if err != io.EOF {
					frameErr = err
				}
				return
			}
			select {
			case work <- u:
				if m != nil {
					m.QueueDepth.Set(float64(len(work)))
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	// Stage 2: decode units on the worker pool.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := fr.newDecoder()
			for u := range work {
				decode(dec, u)
				select {
				case results <- u:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		decodeSp.End()
		close(results)
	}()

	// Stage 3 (this goroutine): reassemble stream order and deliver.
	fail := func(err error) (Stats, error) {
		cancel()
		for range results {
		}
		return mg.stats, err
	}
	pending := make(map[int64]*unit)
	var seq int64
	for u := range results {
		pending[u.seq] = u
		for u, ok := pending[seq]; ok; u, ok = pending[seq] {
			delete(pending, seq)
			seq++
			if err := ctx.Err(); err != nil {
				return fail(err)
			}
			if err := mg.deliver(u); err != nil {
				return fail(err)
			}
			select {
			case free <- u:
			default:
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return mg.stats, err
	}
	return mg.stats, frameErr
}

// merger is the pipeline's single delivery stage: it sees every unit in
// stream order, so Stats, the dead letter, the budget, and the metrics
// read the same at any worker count.
type merger struct {
	fn    func(*logfmt.Record) error
	opts  Options
	stats Stats
}

// deliver hands u's records to fn and quarantines its bad spans, each
// at its place in the stream.
func (g *merger) deliver(u *unit) error {
	done := 0
	for _, b := range u.bad {
		if err := g.emit(u.recs[done:b.at]); err != nil {
			return err
		}
		done = b.at
		if err := g.quarantine(b); err != nil {
			return err
		}
	}
	return g.emit(u.recs[done:])
}

func (g *merger) emit(recs []logfmt.Record) error {
	for i := range recs {
		g.stats.Records++
		if err := g.fn(&recs[i]); err != nil {
			if m := g.opts.Metrics; m != nil {
				m.Records.Add(int64(i + 1))
			}
			return err
		}
	}
	if m := g.opts.Metrics; m != nil {
		m.Records.Add(int64(len(recs)))
	}
	return nil
}

func (g *merger) quarantine(b badSpan) error {
	g.stats.Quarantined += b.lost
	g.stats.FramesDropped++
	m := g.opts.Metrics
	if m != nil {
		m.Quarantined.Add(b.lost)
	}
	if b.resync {
		g.stats.Resyncs++
		g.stats.BytesSkipped += b.skipped
		if m != nil {
			m.ChunkSkips.Observe(b.skipped, b.lost)
		}
	}
	if err := g.opts.DeadLetter.Write(quarantineFor(b.de)); err != nil {
		return fmt.Errorf("ingest: writing dead letter: %w", err)
	}
	return checkBudget(g.stats, g.opts, b.de)
}

// textFramer cuts a text stream into batches of non-blank lines.
type textFramer struct {
	br            *bufio.Reader
	format        logfmt.Format
	batch         int
	offset, index int64
	// textCap sizes a fresh unit's text buffer like the largest batch
	// so far, instead of growing it by doubling.
	textCap int
	err     error
}

func (f *textFramer) next(u *unit) error {
	if f.err != nil {
		return f.err
	}
	if u.ends == nil {
		u.text = make([]byte, 0, f.textCap)
		u.ends = make([]int, 0, f.batch)
		u.offsets = make([]int64, 0, f.batch)
	}
	u.text, u.ends, u.offsets = u.text[:0], u.ends[:0], u.offsets[:0]
	u.index = f.index
	start := f.offset
	for len(u.ends) < f.batch && f.err == nil {
		mark := len(u.text)
		for {
			frag, err := f.br.ReadSlice('\n')
			u.text = append(u.text, frag...)
			if err != bufio.ErrBufferFull {
				f.err = err
				break
			}
		}
		lineStart := f.offset
		f.offset += int64(len(u.text) - mark)
		if n := len(u.text); n > mark && u.text[n-1] == '\n' {
			u.text = u.text[:n-1]
		}
		if len(u.text) > mark {
			u.ends = append(u.ends, len(u.text))
			u.offsets = append(u.offsets, lineStart)
			f.index++
		}
	}
	u.bytes = f.offset - start
	f.textCap = max(f.textCap, len(u.text))
	if len(u.ends) > 0 {
		return nil
	}
	return f.err
}

func (f *textFramer) tally() (int64, int64) { return f.offset, f.index }

// newDecoder parses lines with a per-worker interner, so repeated URLs
// and user agents share one copy across the decoded dataset.
func (f *textFramer) newDecoder() func(*unit) {
	intern := logfmt.NewInterner(0)
	format := f.format
	return func(u *unit) {
		var text string
		if format == logfmt.FormatTSV {
			text = string(u.text) // one allocation per batch, not per line
		}
		if cap(u.recs) < len(u.ends) {
			u.recs = make([]logfmt.Record, 0, len(u.ends))
		}
		start := 0
		for i, end := range u.ends {
			u.recs = append(u.recs, logfmt.Record{})
			r := &u.recs[len(u.recs)-1]
			var err error
			switch format {
			case logfmt.FormatTSV:
				err = logfmt.ParseTSV(text[start:end], r)
			case logfmt.FormatJSONL:
				err = logfmt.UnmarshalJSONLine(u.text[start:end], r)
			default:
				err = fmt.Errorf("logfmt: unknown format %d", format)
			}
			if err != nil {
				u.recs = u.recs[:len(u.recs)-1]
				u.bad = append(u.bad, badSpan{at: len(u.recs), lost: 1, de: &logfmt.DecodeError{
					Format: format.Name(), Offset: u.offsets[i], Record: u.index + int64(i),
					Span: int64(end-start) + 1, Err: err}})
			} else {
				r.URL = intern.Intern(r.URL)
				r.UserAgent = intern.Intern(r.UserAgent)
			}
			start = end
		}
	}
}

// chunkFramer walks a chunk container's frames without decompressing
// them, resyncing past corrupt framing.
type chunkFramer struct {
	sc *logfmt.ChunkScanner
	// own copies each payload out of the scanner's reuse buffer, which
	// a parallel run needs and an inline run does not.
	own     bool
	records int64
	err     error
}

func (f *chunkFramer) next(u *unit) error {
	if f.err != nil {
		return f.err
	}
	start := f.sc.Offset()
	err := f.sc.Next(&u.rc)
	u.bytes = f.sc.Offset() - start
	de := logfmt.AsDecodeError(err)
	if de == nil {
		if err != nil {
			return err
		}
		f.records += int64(u.rc.Records)
		if f.own {
			u.payload = append(u.payload[:0], u.rc.Payload...)
			u.rc.Payload = u.payload
		}
		return nil
	}
	// Framing is suspect: scan for the next validated chunk header and
	// report the span, with the bytes the resync discarded. Its records
	// are unknown, so it counts as one.
	skipped, rerr := f.sc.Resync(0)
	u.bytes += skipped
	u.bad = append(u.bad, badSpan{de: de, lost: 1, resync: true, skipped: skipped})
	if rerr == io.EOF {
		f.err = io.EOF
	} else if rerr != nil {
		f.err = fmt.Errorf("ingest: after chunk at byte %d: %w", de.Offset, rerr)
	}
	return nil
}

func (f *chunkFramer) tally() (int64, int64) { return f.sc.Offset(), f.records }

// newDecoder decodes whole chunks with a per-worker logfmt.ChunkDecoder.
// A chunk whose frame is intact but whose contents are bad quarantines
// whole; the framer already stands on the next boundary.
func (f *chunkFramer) newDecoder() func(*unit) {
	var dec *logfmt.ChunkDecoder
	return func(u *unit) {
		if len(u.bad) > 0 {
			return // framing lost; nothing to decode
		}
		if dec == nil {
			dec = logfmt.NewChunkDecoder(f.sc.Codec(), nil)
		}
		recs, err := dec.Decode(&u.rc, u.recs)
		if err != nil {
			u.recs = recs[:0]
			u.bad = append(u.bad, badSpan{lost: int64(u.rc.Records), resync: true, de: &logfmt.DecodeError{
				Format: "chunk", Offset: u.rc.Offset, Record: u.rc.Index, Span: u.rc.FrameLen(), Err: err}})
			return
		}
		u.recs = recs
	}
}

// newLineReader wraps r in a buffered reader, transparently
// decompressing gzip (detected by magic bytes) and rejecting the
// retired .cdnb binary stream.
func newLineReader(r io.Reader) (*bufio.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if magic, err := br.Peek(2); err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("ingest: bad gzip stream: %w", err)
		}
		br = bufio.NewReaderSize(gz, 1<<16)
	}
	if magic, _ := br.Peek(5); logfmt.IsRetiredMagic(magic) {
		return nil, logfmt.ErrRetiredFormat
	}
	return br, nil
}

// FileSource streams a log file tolerantly through the pipeline,
// implementing core.Source. The chunk container is detected by magic
// bytes regardless of extension (RunChunks); anything else decodes as
// the text format its extension names (Run). After Each returns,
// LastStats holds the run's accounting.
type FileSource struct {
	// Path is the log file (.tsv/.jsonl[.gz] or .cdnc).
	Path string
	// Ctx cancels the run between decode units; nil means Background.
	Ctx context.Context
	// Config sizes the pipeline and its tolerance options.
	Config PipelineConfig
	// LastStats is the accounting of the most recent Each.
	LastStats Stats
}

// Each implements core.Source.
func (f *FileSource) Each(fn func(*logfmt.Record) error) error {
	fh, err := os.Open(f.Path)
	if err != nil {
		return err
	}
	defer fh.Close()
	br := bufio.NewReaderSize(fh, 1<<16)
	if magic, _ := br.Peek(5); logfmt.IsChunkMagic(magic) {
		f.LastStats, err = RunChunks(f.Ctx, br, f.Config, fn)
	} else {
		f.LastStats, err = Run(f.Ctx, br, logfmt.FormatForPath(f.Path), f.Config, fn)
	}
	return err
}
