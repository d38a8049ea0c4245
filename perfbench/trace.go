package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// layer names the boundary a span was recorded at. The serve stack's
// nesting is
//
//	fleet ⊃ attempt ⊃ edge ⊃ {admit, outcome, tap, resilient ⊃ inner}
type layer uint8

const (
	lFleet     layer = iota // Fleet.ServeHTTP (handler wrapper)
	lAttempt                // the front's outbound attempt (fleet.Config.Transport wrapper)
	lEdge                   // HTTPEdge.ServeHTTP (handler wrapper)
	lAdmit                  // Defense.Admit
	lOutcome                // Defense.RecordOutcome
	lTap                    // the Log tap feeding LiveChar.Observe
	lResilient              // ResilientOrigin.Fetch
	lInner                  // the ResilientOrigin's inner Origin.Fetch
	nLayers
)

var layerNames = [nLayers]string{"fleet", "attempt", "edge", "admit", "outcome", "tap", "resilient", "inner"}

// span is one call across a layer boundary. Spans of one request share
// req; the edge's callees that never see the request (the Log tap and
// the origin) carry req 0 and are matched to their edge span by member,
// key and time containment.
type span struct {
	Req    int64  `json:"req,omitempty"`
	Layer  layer  `json:"-"`
	Name   string `json:"layer"`
	Member int    `json:"member"`
	// URL is the edge cache key (edge and tap spans); Path is the
	// origin fetch path (edge and origin spans).
	URL   string `json:"url,omitempty"`
	Path  string `json:"path,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Collapsed marks an Admit that rewrote the cache key.
	Collapsed bool `json:"collapsed,omitempty"`
}

func (s *span) iv() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory while on; the wrappers consult on so the
// untraced windows of a run pay one atomic load per boundary.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is monotonic nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// active reports whether spans are being recorded; nil-safe.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) add(s span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take stops recording and returns the spans kept so far.
func (t *tracer) take() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		spans[i].Name = layerNames[spans[i].Layer]
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is what the per-layer metrics are derived from: self
// times of the hops, raw durations of the leaf calls, and counts.
type layerTimes struct {
	fleetSelf, hop, edgeSelf []float64 // µs
	admit, tap               []float64 // µs
	fetch                    []float64 // ms, ResilientOrigin.Fetch
	innerBusyNS              int64     // total inner Origin.Fetch time
	requests, attempts       int
	admits, collapsed        int
	unmatched                int // origin or tap spans with no enclosing edge span
}

// memberKey indexes edge (or resilient) spans for containment matching.
type memberKey struct {
	member int
	key    string
}

// enclosing returns the index among cands of the latest-starting span
// that contains s, or -1.
func enclosing(spans []span, cands []int, s *span) int {
	best := -1
	for _, i := range cands {
		c := &spans[i]
		if c.Start <= s.Start && s.End <= c.End && (best < 0 || c.Start > spans[best].Start) {
			best = i
		}
	}
	return best
}

// analyze attaches every span to its parent and derives layerTimes.
func analyze(spans []span) layerTimes {
	var lt layerTimes
	byURL := map[memberKey][]int{}
	byPath := map[memberKey][]int{}
	resByPath := map[memberKey][]int{}
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case lEdge:
			byURL[memberKey{s.Member, s.URL}] = append(byURL[memberKey{s.Member, s.URL}], i)
			byPath[memberKey{s.Member, s.Path}] = append(byPath[memberKey{s.Member, s.Path}], i)
		case lResilient:
			resByPath[memberKey{s.Member, s.Path}] = append(resByPath[memberKey{s.Member, s.Path}], i)
		}
	}
	// children[i] lists the child intervals of span i.
	children := make(map[int][]interval)
	// Request-tagged spans find their parent through the request: the
	// fleet span parents attempts; an attempt parents the edge span on
	// its member; the edge span parents admit and outcome.
	type reqKey struct {
		req    int64
		layer  layer
		member int
	}
	byReq := map[reqKey][]int{}
	for i := range spans {
		s := &spans[i]
		if s.Req != 0 {
			k := reqKey{s.Req, s.Layer, s.Member}
			byReq[k] = append(byReq[k], i)
		}
	}
	parentOf := func(s *span, l layer, member int) int {
		return enclosing(spans, byReq[reqKey{s.Req, l, member}], s)
	}
	for i := range spans {
		s := &spans[i]
		p := -1
		switch s.Layer {
		case lFleet:
			lt.requests++
		case lAttempt:
			lt.attempts++
			p = parentOf(s, lFleet, -1)
		case lEdge:
			p = parentOf(s, lAttempt, -1)
		case lAdmit, lOutcome:
			p = parentOf(s, lEdge, s.Member)
			if s.Layer == lAdmit {
				lt.admits++
				lt.admit = append(lt.admit, us(s))
				if s.Collapsed {
					lt.collapsed++
				}
			}
		case lTap:
			p = enclosing(spans, byURL[memberKey{s.Member, s.URL}], s)
			lt.tap = append(lt.tap, us(s))
		case lResilient:
			p = enclosing(spans, byPath[memberKey{s.Member, s.Path}], s)
			lt.fetch = append(lt.fetch, us(s)/1000)
		case lInner:
			lt.innerBusyNS += s.End - s.Start
			p = enclosing(spans, resByPath[memberKey{s.Member, s.Path}], s)
		}
		if p >= 0 {
			children[p] = append(children[p], s.iv())
		} else if s.Layer >= lTap {
			lt.unmatched++
		}
	}
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case lFleet:
			lt.fleetSelf = append(lt.fleetSelf, float64(selfTime(s.iv(), children[i]))/1e3)
		case lAttempt:
			lt.hop = append(lt.hop, float64(selfTime(s.iv(), children[i]))/1e3)
		case lEdge:
			lt.edgeSelf = append(lt.edgeSelf, float64(selfTime(s.iv(), children[i]))/1e3)
		}
	}
	return lt
}

// us is a span's duration in microseconds.
func us(s *span) float64 { return float64(s.End-s.Start) / 1e3 }
