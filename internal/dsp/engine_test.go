package dsp

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// engineSizes covers every path of the signal plan: the trivial sizes,
// odd and prime lengths, an even length that is not 5-smooth (all three
// take the Bluestein periodogram), 5-smooth lengths (the periodogram is
// the even bins of the ACF's spectrum) and powers of two.
var engineSizes = []int{1, 2, 3, 4, 7, 9, 25, 64, 101, 1024, 3450, 3457, 3600, 4096}

func normalSignal(n int, seed uint64) []float64 {
	r := stats.NewRNG(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	return x
}

func TestSmoothSizes(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 7: 8, 11: 12, 3450: 3456, 3457: 3600, 3600: 3600, 6913: 7200} {
		if got := smoothAtLeast(n); got != want {
			t.Errorf("smoothAtLeast(%d) = %d, want %d", n, got, want)
		}
	}
	for n, blue := range map[int]bool{3450: true, 3457: true, 3600: false, 2048: false, 7: true} {
		if got := newSignalPlan(n).blue != nil; got != blue {
			t.Errorf("n=%d: Bluestein periodogram = %v, want %v", n, got, blue)
		}
	}
}

// referenceThresholds is the permutation test evaluated with the O(n²)
// Direct functions on the uncentered shuffles.
func referenceThresholds(signal []float64, cfg DetectorConfig, rng *stats.RNG) (acfThresh, powThresh float64) {
	n := len(signal)
	maxLag := int(float64(n) * cfg.MaxLagFrac)
	perm := append([]float64(nil), signal...)
	var acfMax, powMax []float64
	for i := 0; i < cfg.Permutations; i++ {
		rng.Shuffle(n, func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		acf := AutocorrelationDirect(perm)
		m := 0.0
		for lag := cfg.MinLag; lag <= maxLag && lag < n; lag++ {
			m = max(m, acf[lag])
		}
		acfMax = append(acfMax, m)
		pow := PeriodogramDirect(perm)
		m = 0
		for k := 2; k < len(pow); k++ {
			m = max(m, pow[k])
		}
		powMax = append(powMax, m)
	}
	return kthLargest(acfMax, 2), kthLargest(powMax, len(powMax)-1)
}

func TestThresholdsMatchDirectReference(t *testing.T) {
	cfg := DefaultDetectorConfig()
	for _, n := range []int{120, 127, 150} { // smooth, prime, even non-smooth
		for _, x := range [][]float64{normalSignal(n, 7), periodicSignal(n, 12, true, stats.NewRNG(8))} {
			wantACF, wantPow := referenceThresholds(x, cfg, stats.NewRNG(99))
			centered, c0 := center(x)
			plan := newSignalPlan(n)
			gotACF, gotPow, st := permutationThresholds(plan, centered, plan.acfScale(c0), cfg, stats.NewRNG(99), math.Inf(1))
			if st.Shuffles != cfg.Permutations || st.EarlyStop {
				t.Fatalf("n=%d: ran %+v, want all %d shuffles", n, st, cfg.Permutations)
			}
			if math.Abs(gotACF-wantACF) > 1e-9 || math.Abs(gotPow-wantPow) > 1e-9*max(1, wantPow) {
				t.Errorf("n=%d: thresholds (%v, %v), direct reference (%v, %v)", n, gotACF, gotPow, wantACF, wantPow)
			}
		}
	}
}

// TestEarlyStopChangesNothing runs the detector with and without
// sequential stopping on the same streams over noise, periodic and
// constant signals of assorted lengths and lag floors: every result
// must be identical, and a stopped call must be a non-detection.
func TestEarlyStopChangesNothing(t *testing.T) {
	stopped, signals := 0, 0
	for seed := uint64(0); seed < 210; seed++ {
		r := stats.NewRNG(seed)
		n := 60 + r.Intn(300)
		var x []float64
		switch seed % 3 {
		case 0: // sparse random arrivals
			x = make([]float64, n)
			for i := range x {
				if r.Bool(0.1) {
					x[i] = float64(1 + r.Intn(3))
				}
			}
		case 1:
			x = periodicSignal(n, 3+r.Intn(30), seed%2 == 0, r)
		case 2:
			x = make([]float64, n)
			for i := range x {
				x[i] = float64(seed % 5)
			}
		}
		cfg := DetectorConfig{Permutations: 100, MinLag: []int{2, 3, 10}[seed%3], MaxLagFrac: 0.5}
		if seed%7 == 0 {
			cfg.MaxLagFrac = 1
		}
		signals++

		full, okFull, stFull, err1 := detect(x, cfg, stats.NewRNG(seed+1000), false)
		fast, okFast, stFast, err2 := detect(x, cfg, stats.NewRNG(seed+1000), true)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: errors %v, %v", seed, err1, err2)
		}
		if full != fast || okFull != okFast {
			t.Errorf("seed %d: Detect %+v/%v without stopping, %+v/%v with", seed, full, okFull, fast, okFast)
		}
		if stFull.EarlyStop || stFast.Shuffles > stFull.Shuffles {
			t.Errorf("seed %d: stats %+v without stopping, %+v with", seed, stFull, stFast)
		}
		if stFast.EarlyStop {
			stopped++
			if okFast {
				t.Errorf("seed %d: stopped early but reported a period", seed)
			}
		}

		allFull, err1 := detectAll(x, cfg, stats.NewRNG(seed+2000), 0, false)
		allFast, err2 := detectAll(x, cfg, stats.NewRNG(seed+2000), 0, true)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: DetectAll errors %v, %v", seed, err1, err2)
		}
		if len(allFull) != len(allFast) {
			t.Errorf("seed %d: DetectAll %v without stopping, %v with", seed, allFull, allFast)
			continue
		}
		for i := range allFull {
			if allFull[i] != allFast[i] {
				t.Errorf("seed %d: DetectAll %v without stopping, %v with", seed, allFull, allFast)
				break
			}
		}
	}
	if stopped == 0 || stopped == signals {
		t.Errorf("%d of %d calls stopped early; the check needs both kinds", stopped, signals)
	}
}

// TestDetectRespectsMinLag pins the lag floor: with MinLag=10 no period
// below 10 may come back. The signal's gaps are 9 or, at random, 12
// samples, so its mean spacing rounds to a spectral candidate at 10
// while its strongest ACF peak sits at 9, where a hill climb that
// ignores the floor ends up.
func TestDetectRespectsMinLag(t *testing.T) {
	r := stats.NewRNG(1)
	var x []float64
	for len(x) < 780 {
		gap := 9
		if r.Bool(0.3) {
			gap = 12
		}
		x = append(x, 1)
		x = append(x, make([]float64, gap-1)...)
	}
	x = x[:780]
	cfg := DetectorConfig{Permutations: 100, MinLag: 10, MaxLagFrac: 0.5}
	det, ok, err := Detect(x, cfg, stats.NewRNG(1))
	if err != nil || !ok {
		t.Fatalf("Detect: ok=%v err=%v", ok, err)
	}
	if det.Period < cfg.MinLag {
		t.Errorf("Detect period %d below MinLag %d", det.Period, cfg.MinLag)
	}
	dets, err := DetectAll(x, cfg, stats.NewRNG(1), 0)
	if err != nil || len(dets) == 0 {
		t.Fatalf("DetectAll: %v %v", dets, err)
	}
	for _, d := range dets {
		if d.Period < cfg.MinLag {
			t.Errorf("DetectAll period %d below MinLag %d", d.Period, cfg.MinLag)
		}
	}
	// The default floor still finds the 9-sample spacing.
	if det, ok, _ := Detect(x, DefaultDetectorConfig(), stats.NewRNG(1)); !ok || det.Period != 9 {
		t.Errorf("default MinLag: %+v, ok=%v; want period 9", det, ok)
	}
}

// TestShuffleLoopAllocatesNothing checks that the per-shuffle work runs
// entirely in the plan's buffers.
func TestShuffleLoopAllocatesNothing(t *testing.T) {
	for _, n := range []int{3450, 3600} {
		plan := newSignalPlan(n)
		x, _ := center(normalSignal(n, 3))
		allocs := testing.AllocsPerRun(5, func() {
			plan.spectrum(x)
			plan.autocorrelation()
			plan.bluesteinPass(x)
			_ = plan.acfRaw(2) + plan.power(2)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocations per shuffle", n, allocs)
		}
	}
}
