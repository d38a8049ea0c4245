package dsp

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// DetectorConfig parameterizes period detection, mirroring §5.1.
type DetectorConfig struct {
	// Permutations is x in the paper's algorithm: how many random
	// shuffles of the signal establish the noise thresholds. The paper
	// empirically finds values above 100 do not change results and uses
	// x = 100.
	Permutations int
	// MinLag is the smallest candidate period in samples. Periods below
	// the sampling rate are unreliable due to network jitter; with the
	// paper's 1 s sampling this is 2 samples.
	MinLag int
	// MaxLagFrac bounds the largest candidate period as a fraction of
	// the signal length; at least two full cycles must be observed, so
	// the default is 0.5.
	MaxLagFrac float64
}

// DefaultDetectorConfig returns the paper's parameters (x=100, 1 s
// sampling, periods up to half the observation window).
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{Permutations: 100, MinLag: 2, MaxLagFrac: 0.5}
}

func (c *DetectorConfig) sanitize(n int) {
	if c.Permutations <= 0 {
		c.Permutations = 100
	}
	if c.MinLag < 2 {
		c.MinLag = 2
	}
	if c.MaxLagFrac <= 0 || c.MaxLagFrac > 1 {
		c.MaxLagFrac = 0.5
	}
}

// Detection is a significant period found in a signal.
type Detection struct {
	// Period is the detected period in samples.
	Period int
	// ACFValue is the autocorrelation at the detected lag.
	ACFValue float64
	// Power is the periodogram power of the supporting frequency.
	Power float64
}

// DetectStats counts the permutation work of one detector call.
type DetectStats struct {
	// Shuffles is the number of permutations run.
	Shuffles int
	// EarlyStop is set when the permutations stopped before x: two
	// shuffled ACF maxima already reached the signal's best ACF value
	// over the lags validation can accept, so the final threshold would
	// reject every lag and the signal is not periodic.
	EarlyStop bool
}

// Detect runs the paper's four-step periodicity algorithm on a uniformly
// sampled signal (e.g. request counts in 1 s bins):
//
//  1. Compute the signal's autocorrelation and periodogram.
//  2. Randomly permute the signal x times; record each permutation's
//     maximum ACF value and maximum spectral power.
//  3. Take the (x-1)-th largest recorded maxima (the second largest, a
//     ~99% confidence bound for x=100) as the ACF and power thresholds.
//  4. Keep periodogram frequencies above the power threshold as
//     candidate periods; validate each on the ACF by hill-climbing to
//     the nearest local maximum and requiring it to clear the ACF
//     threshold. The candidate with the highest validated ACF peak is
//     the signal's period.
//
// Step 2 stops early once two shuffled ACF maxima reach the signal's
// best ACF over [MinLag, maxLag] (sequential Monte-Carlo testing, Besag
// & Clifford 1991): from then on the second-largest maximum rejects
// every lag whatever the remaining shuffles draw, so the outcome is the
// one all x shuffles give; only rng is advanced less. Callers that need
// results independent of earlier calls give each signal its own stream
// (stats.RNG.SplitIndexed).
//
// It returns ok=false when no period is significant, which is the common
// case for human-triggered traffic. rng drives the permutations; pass a
// seeded RNG for reproducible analyses.
func Detect(signal []float64, cfg DetectorConfig, rng *stats.RNG) (Detection, bool, error) {
	det, ok, _, err := DetectWithStats(signal, cfg, rng)
	return det, ok, err
}

// DetectWithStats is Detect that also reports the permutation work done.
func DetectWithStats(signal []float64, cfg DetectorConfig, rng *stats.RNG) (Detection, bool, DetectStats, error) {
	return detect(signal, cfg, rng, true)
}

// detect is Detect with early stopping switchable, so tests can check
// that stopping never changes a result.
func detect(signal []float64, cfg DetectorConfig, rng *stats.RNG, earlyStop bool) (Detection, bool, DetectStats, error) {
	v, err := validatedPeaks(signal, &cfg, rng, earlyStop)
	if err != nil || len(v.peaks) == 0 {
		return Detection{}, false, v.stats, err
	}
	best := v.peaks[0]
	// Prefer the fundamental: a p-periodic signal validates at 2p, 3p,
	// ... with nearly the same ACF, and sampling noise on short signals
	// can favor a multiple. Walk the sub-multiples of the winning lag
	// and take the smallest one whose ACF peak is comparable (>= 70% of
	// the winner; a multiple-only period would show a near-zero sub-lag
	// ACF) and still significant.
	for m := best.Period / cfg.MinLag; m >= 2; m-- {
		sub := (best.Period + m/2) / m // rounded, since peaks drift under jitter
		if sub < cfg.MinLag {
			continue
		}
		lag, ok := hillClimb(v.acf, sub, cfg.MinLag, v.maxLag)
		if !ok || lag >= best.Period || v.acf[lag] <= v.acfThresh || v.acf[lag] < 0.7*best.ACFValue {
			continue
		}
		best = Detection{Period: lag, ACFValue: v.acf[lag], Power: best.Power}
		break
	}
	return best, true, v.stats, nil
}

// DetectAll returns every significant distinct period of the signal in
// descending ACF order, the multi-period analysis the paper leaves as
// future work. Harmonically related peaks are grouped: a lag within 10%
// of an integer multiple of an already-accepted (stronger or equal)
// period is considered the same process and dropped. At most maxPeriods
// are returned (<= 0 means no limit). Its permutations stop early as
// Detect's do.
func DetectAll(signal []float64, cfg DetectorConfig, rng *stats.RNG, maxPeriods int) ([]Detection, error) {
	return detectAll(signal, cfg, rng, maxPeriods, true)
}

func detectAll(signal []float64, cfg DetectorConfig, rng *stats.RNG, maxPeriods int, earlyStop bool) ([]Detection, error) {
	v, err := validatedPeaks(signal, &cfg, rng, earlyStop)
	if err != nil || len(v.peaks) == 0 {
		return nil, err
	}
	var kept []Detection
	for _, p := range v.peaks {
		if isHarmonicOfAny(p.Period, kept) {
			continue
		}
		kept = append(kept, p)
		if maxPeriods > 0 && len(kept) >= maxPeriods {
			break
		}
	}
	return kept, nil
}

// isHarmonicOfAny reports whether lag is within 10% of an integer
// multiple (or sub-multiple) of any kept period.
func isHarmonicOfAny(lag int, kept []Detection) bool {
	for _, k := range kept {
		lo, hi := lag, k.Period
		if lo > hi {
			lo, hi = hi, lo
		}
		ratio := float64(hi) / float64(lo)
		nearest := math.Round(ratio)
		if nearest >= 1 && math.Abs(ratio-nearest) <= 0.1+1e-9 {
			return true
		}
	}
	return false
}

// validation is the outcome of steps 1-4: the signal's ACF, its
// significance threshold, the distinct validated ACF peaks sorted by
// descending ACF value, the lag bound, and the permutation work done.
type validation struct {
	acf       []float64
	acfThresh float64
	peaks     []Detection
	maxLag    int
	stats     DetectStats
}

// validatedPeaks runs steps 1-4 of the detection algorithm.
func validatedPeaks(signal []float64, cfg *DetectorConfig, rng *stats.RNG, earlyStop bool) (v validation, err error) {
	if err = validateSignal(signal); err != nil {
		return v, err
	}
	n := len(signal)
	cfg.sanitize(n)
	v.maxLag = int(float64(n) * cfg.MaxLagFrac)
	if v.maxLag <= cfg.MinLag {
		return v, nil // too short to contain two cycles
	}

	plan := newSignalPlan(n)
	centered, c0 := center(signal)
	plan.spectrum(centered)
	plan.autocorrelation()
	scale := plan.acfScale(c0)
	v.acf = make([]float64, n)
	for lag := range v.acf {
		v.acf[lag] = plan.acfRaw(lag) * scale
	}
	plan.bluesteinPass(centered)
	power := make([]float64, n/2+1)
	for k := range power {
		power[k] = plan.power(k)
	}

	// Validation accepts only lags in [MinLag, maxLag] whose ACF beats
	// the threshold, which is never below 0.
	stopAt := math.Inf(1)
	if earlyStop {
		stopAt = maxOver(v.acf, cfg.MinLag, min(v.maxLag, n-1))
	}
	var powThresh float64
	v.acfThresh, powThresh, v.stats = permutationThresholds(plan, centered, scale, *cfg, rng, stopAt)
	if v.stats.EarlyStop {
		return v, nil
	}

	// Candidate periods from spectral peaks above threshold. k=0 is DC;
	// k=1 is the full window; start at k=2.
	type candidate struct {
		period int
		power  float64
	}
	var cands []candidate
	for k := 2; k < len(power); k++ {
		if power[k] <= powThresh {
			continue
		}
		p := int(float64(n)/float64(k) + 0.5)
		if p < cfg.MinLag || p > v.maxLag {
			continue
		}
		cands = append(cands, candidate{period: p, power: power[k]})
	}
	if len(cands) == 0 {
		return v, nil
	}

	// A significant spectral component at period p is consistent with a
	// true period at any integer multiple of p: multi-client aggregates
	// concentrate power in harmonics of the polling interval (random
	// client phases can cancel the fundamental). Validate every multiple
	// on the ACF; deduplicate by final lag, keeping the highest
	// supporting power.
	byLag := make(map[int]Detection)
	for _, c := range cands {
		for mult := 1; c.period*mult <= v.maxLag; mult++ {
			lag, ok := hillClimb(v.acf, c.period*mult, cfg.MinLag, v.maxLag)
			if !ok || v.acf[lag] <= v.acfThresh {
				continue
			}
			if prev, seen := byLag[lag]; !seen || c.power > prev.Power {
				byLag[lag] = Detection{Period: lag, ACFValue: v.acf[lag], Power: c.power}
			}
		}
	}
	for _, d := range byLag {
		v.peaks = append(v.peaks, d)
	}
	sort.Slice(v.peaks, func(i, j int) bool {
		if v.peaks[i].ACFValue != v.peaks[j].ACFValue {
			return v.peaks[i].ACFValue > v.peaks[j].ACFValue
		}
		return v.peaks[i].Period < v.peaks[j].Period
	})
	return v, nil
}

// maxOver returns the largest of 0 and xs[lo..hi].
func maxOver(xs []float64, lo, hi int) float64 {
	m := 0.0
	for i := lo; i <= hi; i++ {
		m = max(m, xs[i])
	}
	return m
}

// permutationThresholds shuffles the centered signal cfg.Permutations
// times through plan, scaling raw autocovariances by acfScale, and
// returns the (x-1)-th largest maximum ACF value and spectral power
// observed across permutations. It stops as soon as two ACF maxima
// reach stopAt; the thresholds it then returns cover only the shuffles
// run.
func permutationThresholds(plan *signalPlan, centered []float64, acfScale float64, cfg DetectorConfig, rng *stats.RNG, stopAt float64) (acfThresh, powThresh float64, st DetectStats) {
	n := len(centered)
	hiLag := min(int(float64(n)*cfg.MaxLagFrac), n-1)
	perm := make([]float64, n)
	copy(perm, centered)
	swap := func(a, b int) { perm[a], perm[b] = perm[b], perm[a] }
	acfMaxima := make([]float64, 0, cfg.Permutations)
	powMaxima := make([]float64, 0, cfg.Permutations)
	reached := 0
	for i := 0; i < cfg.Permutations; i++ {
		rng.Shuffle(n, swap)
		st.Shuffles++
		plan.spectrum(perm)
		plan.autocorrelation()
		maxACF := 0.0
		for lag := cfg.MinLag; lag <= hiLag; lag++ {
			maxACF = max(maxACF, plan.acfRaw(lag))
		}
		maxACF *= acfScale
		acfMaxima = append(acfMaxima, maxACF)
		if maxACF >= stopAt {
			if reached++; reached == 2 {
				st.EarlyStop = true
				break
			}
		}
		plan.bluesteinPass(perm)
		maxPow := 0.0
		for k := 2; k <= n/2; k++ {
			maxPow = max(maxPow, plan.power(k))
		}
		powMaxima = append(powMaxima, maxPow)
	}
	// The paper takes the "(x-1)th largest" of the recorded maxima as
	// the threshold — a lenient bound (just above the smallest
	// permutation maximum) that admits candidate frequencies whose peak
	// power is diluted by spectral leakage. We apply that reading to the
	// power threshold, which only nominates candidates, and keep the
	// strict bound (second largest, a ~99% confidence level for x=100)
	// on the ACF threshold, which is the decisive validation: a real
	// period must beat essentially every shuffled signal's best
	// autocorrelation.
	powK := len(powMaxima) - 1
	if powK < 1 {
		powK = 1
	}
	return kthLargest(acfMaxima, 2), kthLargest(powMaxima, powK), st
}

// kthLargest returns the k-th largest element (1-indexed); for slices
// shorter than k it returns the smallest element.
func kthLargest(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[k-1]
}

// hillClimb walks from the candidate lag to the nearest local maximum of
// the ACF, correcting the coarse frequency-domain period estimate with
// the finer time-domain one (the "line up autocorrelation and fourier
// transform" step). It fails if the walk leaves [minLag, maxLag].
func hillClimb(acf []float64, lag, minLag, maxLag int) (int, bool) {
	if lag < minLag || lag > maxLag || lag >= len(acf) {
		return 0, false
	}
	for {
		cur := acf[lag]
		next := lag
		if lag+1 <= maxLag && lag+1 < len(acf) && acf[lag+1] > cur {
			next = lag + 1
		} else if lag-1 >= minLag && acf[lag-1] > cur {
			next = lag - 1
		}
		if next == lag {
			return lag, true
		}
		lag = next
	}
}

// IsLocalMaximum reports whether the ACF has a local maximum at the
// given lag, a helper for validating externally supplied periods.
func IsLocalMaximum(acf []float64, lag int) bool {
	if lag <= 0 || lag >= len(acf)-1 {
		return false
	}
	return acf[lag] >= acf[lag-1] && acf[lag] >= acf[lag+1]
}
