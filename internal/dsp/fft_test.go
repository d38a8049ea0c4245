package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// dftNaive is the O(n^2) reference implementation.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Rect(1, angle)
		}
		out[k] = sum
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func randSignal(n int, seed uint64) []complex128 {
	r := stats.NewRNG(seed)
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	// Powers of two, then every radix of the mixed-radix engine alone
	// and combined.
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 6, 9, 10, 15, 20, 25, 27, 30, 36, 45, 60, 75, 120, 125} {
		x := randSignal(n, uint64(n))
		got := FFT(x)
		want := dftNaive(x)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestBluesteinMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12, 17, 100, 101, 11, 13, 97, 98} {
		x := randSignal(n, uint64(n))
		got := FFT(x)
		want := dftNaive(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33, 128, 9, 25, 60, 98} {
		x := randSignal(n, uint64(1000+n))
		back := IFFT(FFT(x))
		if e := maxErr(back, x); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if FFT(nil) != nil || IFFT(nil) != nil || FFTReal(nil) != nil {
		t.Error("empty transforms should return nil")
	}
	if Periodogram(nil) != nil || Autocorrelation(nil) != nil {
		t.Error("empty analyses should return nil")
	}
}

func TestFFTLinearity(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		x := randSignal(16, seed)
		y := randSignal(16, seed+1)
		sum := make([]complex128, 16)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		fx, fy, fsum := FFT(x), FFT(y), FFT(sum)
		for i := range fsum {
			if cmplx.Abs(fsum[i]-(fx[i]+fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestFFTParseval(t *testing.T) {
	x := randSignal(64, 7)
	f := FFT(x)
	var timeE, freqE float64
	for i := range x {
		timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		freqE += real(f[i])*real(f[i]) + imag(f[i])*imag(f[i])
	}
	if math.Abs(timeE-freqE/64)/timeE > 1e-9 {
		t.Errorf("Parseval violated: time %g, freq/n %g", timeE, freqE/64)
	}
}

func TestPeriodogramSinePeak(t *testing.T) {
	// A pure sine at frequency k=8 of 128 samples must peak at bin 8.
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 8 * float64(i) / float64(n))
	}
	p := Periodogram(x)
	if len(p) != n/2+1 {
		t.Fatalf("periodogram length %d", len(p))
	}
	peak := 0
	for k := 1; k < len(p); k++ {
		if p[k] > p[peak] {
			peak = k
		}
	}
	if peak != 8 {
		t.Errorf("peak at bin %d, want 8", peak)
	}
}

func TestAutocorrelationProperties(t *testing.T) {
	// Periodic impulse train with period 10.
	n := 200
	x := make([]float64, n)
	for i := 0; i < n; i += 10 {
		x[i] = 1
	}
	acf := Autocorrelation(x)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Errorf("acf[0] = %v, want 1", acf[0])
	}
	if acf[10] < 0.8 {
		t.Errorf("acf[10] = %v, want near 1", acf[10])
	}
	if acf[5] > 0.3 {
		t.Errorf("acf[5] = %v, want near 0", acf[5])
	}
	for lag, v := range acf {
		if v > 1+1e-9 {
			t.Errorf("acf[%d] = %v exceeds 1", lag, v)
		}
	}
}

func TestAutocorrelationConstantSignal(t *testing.T) {
	x := []float64{3, 3, 3, 3, 3}
	acf := Autocorrelation(x)
	for lag, v := range acf {
		if v != 0 {
			t.Errorf("constant signal acf[%d] = %v, want 0", lag, v)
		}
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	r := stats.NewRNG(31)
	for _, n := range append([]int{5, 17, 64, 100}, engineSizes...) {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		fast := Autocorrelation(x)
		slow := AutocorrelationDirect(x)
		for lag := range fast {
			if math.Abs(fast[lag]-slow[lag]) > 1e-9 {
				t.Errorf("n=%d lag=%d: fft %v vs direct %v", n, lag, fast[lag], slow[lag])
			}
		}
	}
}

// TestPeriodogramMatchesDirect pins the FFT-based power spectrum to the
// O(n^2) DFT evaluation, including lengths that are not 5-smooth and
// exercise the Bluestein path.
func TestPeriodogramMatchesDirect(t *testing.T) {
	r := stats.NewRNG(32)
	for _, n := range append([]int{5, 17, 64, 100}, engineSizes...) {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		fast := Periodogram(x)
		slow := PeriodogramDirect(x)
		if len(fast) != len(slow) {
			t.Fatalf("n=%d: lengths differ, fft %d vs direct %d", n, len(fast), len(slow))
		}
		for k := range fast {
			if math.Abs(fast[k]-slow[k]) > 1e-9 {
				t.Errorf("n=%d k=%d: fft %v vs direct %v", n, k, fast[k], slow[k])
			}
		}
	}
	if PeriodogramDirect(nil) != nil {
		t.Error("empty signal should yield nil")
	}
}

func TestValidateSignal(t *testing.T) {
	if err := validateSignal(nil); err == nil {
		t.Error("empty signal accepted")
	}
	if err := validateSignal([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN accepted")
	}
	if err := validateSignal([]float64{1, math.Inf(1)}); err == nil {
		t.Error("Inf accepted")
	}
	if err := validateSignal([]float64{1, 2}); err != nil {
		t.Errorf("valid signal rejected: %v", err)
	}
}
