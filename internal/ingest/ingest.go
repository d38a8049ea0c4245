// Package ingest is the hardened log-to-analysis path: one bounded,
// cancellable, ordered decode pipeline for the text formats and the
// chunk container, tolerant of corrupt spans with dead-letter
// quarantine, and accurate accounting of what was kept, skipped, and
// resynchronized.
//
// The paper's analyses are functions of a 35M-record edge-log stream;
// at that scale real CDN logs arrive truncated, interleaved, and
// partially corrupt. The decoders in internal/logfmt report corruption
// as positional *logfmt.DecodeError values; this package turns those
// into quarantine entries and keeps the stream flowing, governed by a
// max-error-rate budget that converts "too corrupt to trust" into a
// hard, positional error.
package ingest

import (
	"errors"
	"fmt"

	"repro/internal/logfmt"
	"repro/internal/obs"
)

// ErrBudgetExceeded marks a stream whose corrupt-record fraction blew
// the configured budget: the data is too damaged to trust, so the read
// fails fast instead of silently analyzing a remnant.
var ErrBudgetExceeded = errors.New("ingest: corrupt-record budget exceeded")

// Options configures tolerant decoding.
type Options struct {
	// MaxErrorRate is the quarantine budget: once more than this
	// fraction of decode attempts has been quarantined (after
	// MinRecords attempts), reading fails with ErrBudgetExceeded.
	// Default 0.05.
	MaxErrorRate float64
	// MinRecords is the grace period before the budget is enforced, so
	// one bad record at the head of a stream cannot trip a percentage
	// budget. Default 64.
	MinRecords int64
	// DeadLetter receives quarantined spans; nil counts only.
	DeadLetter *DeadLetter
	// Metrics, when non-nil, receives per-record instrumentation.
	Metrics *Instrumentation
}

func (o *Options) sanitize() {
	if o.MaxErrorRate <= 0 {
		o.MaxErrorRate = 0.05
	}
	if o.MinRecords <= 0 {
		o.MinRecords = 64
	}
}

// checkBudget fails the stream once the quarantine fraction exceeds the
// budget, with the position of the error that tripped it.
func checkBudget(s Stats, opts Options, de *logfmt.DecodeError) error {
	total := s.Records + s.Quarantined
	if total < opts.MinRecords {
		return nil
	}
	if rate := s.ErrorRate(); rate > opts.MaxErrorRate {
		return fmt.Errorf("%w: %d of %d records quarantined (%.2f%% > %.2f%% budget), tripped at byte %d (record %d): %v",
			ErrBudgetExceeded, s.Quarantined, total,
			rate*100, opts.MaxErrorRate*100, de.Offset, de.Record, de.Err)
	}
	return nil
}

// Stats is the accounting of one pipeline run.
type Stats struct {
	// Records is the number of records decoded successfully.
	Records int64
	// Quarantined is the number of records lost to quarantined spans.
	// For the text formats one span is one line; for the chunk
	// container a quarantined chunk loses its whole claimed record
	// count, so the error budget stays record-denominated across
	// formats.
	Quarantined int64
	// FramesDropped is the number of bad spans (lines or chunks) sent
	// to the dead letter.
	FramesDropped int64
	// Resyncs is the number of chunk-boundary resynchronizations, one
	// per quarantined chunk (0 bytes skipped when its framing survived).
	Resyncs int64
	// BytesSkipped is the number of bytes discarded while resyncing.
	BytesSkipped int64
}

// ErrorRate returns the fraction of decode attempts that were
// quarantined (0 when nothing was read).
func (s Stats) ErrorRate() float64 {
	total := s.Records + s.Quarantined
	if total == 0 {
		return 0
	}
	return float64(s.Quarantined) / float64(total)
}

// SkipMetrics is the structured resync/skip accounting of a format that
// can lose stream position, one metric family labeled by format. The
// chunk container is the one such format today.
type SkipMetrics struct {
	// Resyncs counts resynchronization scans
	// (ingest_resyncs_total{format=...}).
	Resyncs *obs.Counter
	// SkippedBytes counts bytes discarded while resyncing
	// (ingest_skipped_bytes_total{format=...}).
	SkippedBytes *obs.Counter
	// DroppedFrames counts bad chunks quarantined
	// (ingest_dropped_frames_total{format=...}).
	DroppedFrames *obs.Counter
	// DroppedRecords counts records lost inside those spans
	// (ingest_dropped_records_total{format=...}).
	DroppedRecords *obs.Counter
}

// Observe records one quarantine/resync event: a dropped span holding
// records lost records, with bytes skipped finding the next boundary.
// Nil receivers are no-ops so unmetered paths need no guards.
func (s *SkipMetrics) Observe(bytesSkipped, records int64) {
	if s == nil {
		return
	}
	s.Resyncs.Inc()
	s.SkippedBytes.Add(bytesSkipped)
	s.DroppedFrames.Inc()
	s.DroppedRecords.Add(records)
}

// Instrumentation holds the pre-resolved ingest metrics, mirroring
// edge.Instrumentation and resilience.Instrumentation: the per-record
// hot path pays no registry lookups.
type Instrumentation struct {
	// Records counts successfully decoded records
	// (ingest_records_total).
	Records *obs.Counter
	// Quarantined counts records lost to quarantined spans
	// (ingest_quarantined_total).
	Quarantined *obs.Counter
	// QueueDepth is the pipeline's bounded-queue occupancy in decode
	// units (ingest_queue_depth).
	QueueDepth *obs.Gauge
	// DecodeSeconds is the decode latency of one decode unit — a line
	// batch or a chunk — per worker (ingest_decode_seconds).
	DecodeSeconds *obs.Histogram
	// ChunkSkips is the chunk container's view of the skip metric
	// family.
	ChunkSkips *SkipMetrics
}

// newSkipMetrics resolves the skip family for one format label.
func newSkipMetrics(reg *obs.Registry, format string) *SkipMetrics {
	return &SkipMetrics{
		Resyncs:        reg.Counter("ingest_resyncs_total", "format", format),
		SkippedBytes:   reg.Counter("ingest_skipped_bytes_total", "format", format),
		DroppedFrames:  reg.Counter("ingest_dropped_frames_total", "format", format),
		DroppedRecords: reg.Counter("ingest_dropped_records_total", "format", format),
	}
}

// NewInstrumentation registers the ingest metrics in reg and returns
// them. Calling it twice with the same registry returns the same
// underlying metrics. A nil registry returns nil, which every consumer
// tolerates.
func NewInstrumentation(reg *obs.Registry) *Instrumentation {
	if reg == nil {
		return nil
	}
	reg.Help("ingest_records_total", "Records decoded successfully by the ingest path.")
	reg.Help("ingest_quarantined_total", "Records lost to spans quarantined to the dead letter.")
	reg.Help("ingest_resyncs_total", "Stream resynchronization scans, by format.")
	reg.Help("ingest_skipped_bytes_total", "Bytes discarded while resynchronizing, by format.")
	reg.Help("ingest_dropped_frames_total", "Bad chunks quarantined, by format.")
	reg.Help("ingest_dropped_records_total", "Records lost inside quarantined chunks, by format.")
	reg.Help("ingest_queue_depth", "Bounded ingest queue occupancy, in decode units.")
	reg.Help("ingest_decode_seconds", "Decode latency of one decode unit (a line batch or a chunk).")
	return &Instrumentation{
		Records:       reg.Counter("ingest_records_total"),
		Quarantined:   reg.Counter("ingest_quarantined_total"),
		QueueDepth:    reg.Gauge("ingest_queue_depth"),
		DecodeSeconds: reg.Histogram("ingest_decode_seconds", obs.ExpBuckets(1e-7, 4, 12)),
		ChunkSkips:    newSkipMetrics(reg, "chunk"),
	}
}
