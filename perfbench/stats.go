package main

import (
	"math"
	"sort"
)

// tailQuantiles are the percentiles a timing is reported at, highest
// first; tailQuantile picks the highest one the sample supports.
var tailQuantiles = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailQuantile returns the highest of tailQuantiles that leaves at
// least minBeyond of n samples beyond it, and false when even the
// median does not.
func tailQuantile(n int64) (float64, bool) {
	for _, q := range tailQuantiles {
		// Round before flooring so 1000×(1−0.99) counts as 10, not 9.
		beyond := math.Floor(float64(n)*(1-q) + 1e-9)
		if beyond >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// rung is one fixed rate of the ladder and what the stack did at it.
type rung struct {
	Rate     float64 `json:"rate"`
	P99MS    float64 `json:"p99_ms"`
	Samples  int64   `json:"samples"`
	Achieved float64 `json:"achieved_rps"`
	Failed   int64   `json:"failed"`
	Pass     bool    `json:"pass"`
}

// judge marks a rung passing when its p99 is under the limit, the
// stack kept up (achieved within 5% of the rate, which allows for the
// last responses draining after the schedule ends) and no request
// failed.
func (r *rung) judge(limitMS float64) {
	r.Pass = r.P99MS < limitMS && r.Achieved >= 0.95*r.Rate && r.Failed == 0
}

// sloRPS is the highest sustainable rate of an ascending ladder: the
// rate of the last rung before the first failing one, interpolated in
// p99 toward the failing rung when that rung failed on latency. It
// returns 0 when the first rung fails, and the top rate (capped true)
// when every rung passes — a lower bound, since the ladder ended.
func sloRPS(rungs []rung, limitMS float64) (rps float64, capped bool) {
	for i, r := range rungs {
		if r.Pass {
			continue
		}
		if i == 0 {
			return 0, false
		}
		p := rungs[i-1]
		if r.P99MS > limitMS && r.P99MS > p.P99MS {
			return p.Rate + (r.Rate-p.Rate)*(limitMS-p.P99MS)/(r.P99MS-p.P99MS), false
		}
		return p.Rate, false
	}
	if len(rungs) == 0 {
		return 0, false
	}
	return rungs[len(rungs)-1].Rate, true
}

// interval is a half-open span of monotonic nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child, with each
// child clipped to the parent and overlapping or nested children
// counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{-1, -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		if c.end > cur.end {
			cur.end = c.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// quantile returns the q-quantile of xs (nearest rank), or 0 for an
// empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median returns the middle of xs (mean of the two middles for an even
// count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// ratio is a/b, or 0 when b is 0 — for layers a workload does not
// exercise.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
