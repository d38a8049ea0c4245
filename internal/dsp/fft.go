// Package dsp implements the signal-processing primitives behind the
// paper's periodicity detection (§5.1): fast Fourier transforms,
// periodograms, FFT-based autocorrelation, and permutation-based
// significance thresholds, following the AUTOPERIOD approach of
// Vlachos, Yu & Castelli (SDM'05) that the paper extends.
//
// One transform engine serves all of them: an iterative Stockham
// mixed-radix (2, 3, 4, 5) FFT over precomputed twiddles for 5-smooth
// sizes, and Bluestein's chirp-z transform on a 5-smooth convolution
// length for every other size. The autocorrelation and periodogram run
// through a signalPlan sized for one signal length; Detect builds one
// plan per call and reuses it, buffers included, for every shuffle.
package dsp

import (
	"fmt"
	"math"
)

// fftPlan is a Stockham autosort FFT of one 5-smooth size with its
// twiddle factors precomputed. It is read-only once built; callers
// supply the buffers.
type fftPlan struct {
	stages []fftStage
}

// fftStage is one radix-r pass of the decimation-in-frequency Stockham
// recursion: it splits the stride interleaved transforms of length span
// into stride·r transforms of length span/r.
type fftStage struct {
	radix, span, stride int
	// fwd[p*(radix-1)+k-1] is exp(-2πi·p·k/span) for p < span/radix and
	// k in [1, radix); inv holds the conjugates.
	fwd, inv []complex128
}

// newFFTPlan builds the plan for a 5-smooth n >= 1.
func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{}
	span, stride := n, 1
	for span > 1 {
		r := 0
		switch {
		case span%4 == 0:
			r = 4
		case span%2 == 0:
			r = 2
		case span%3 == 0:
			r = 3
		case span%5 == 0:
			r = 5
		default:
			panic(fmt.Sprintf("dsp: FFT size %d is not 5-smooth", n))
		}
		st := fftStage{radix: r, span: span, stride: stride}
		m := span / r
		st.fwd = make([]complex128, m*(r-1))
		st.inv = make([]complex128, m*(r-1))
		for q := 0; q < m; q++ {
			for k := 1; k < r; k++ {
				// q·k < span, so the angle is exact up to one rounding.
				s, c := math.Sincos(-2 * math.Pi * float64(q*k) / float64(span))
				st.fwd[q*(r-1)+k-1] = complex(c, s)
				st.inv[q*(r-1)+k-1] = complex(c, -s)
			}
		}
		p.stages = append(p.stages, st)
		span /= r
		stride *= r
	}
	return p
}

// transform computes the unnormalized DFT of x in place (the conjugate
// transform if inverse). work must hold at least len(x) elements.
func (p *fftPlan) transform(x, work []complex128, inverse bool) {
	src, dst := x, work[:len(x)]
	sign := -1.0
	if inverse {
		sign = 1
	}
	for i := range p.stages {
		st := &p.stages[i]
		tw := st.fwd
		if inverse {
			tw = st.inv
		}
		m := st.span / st.radix
		switch st.radix {
		case 2:
			pass2(src, dst, m, st.stride, tw)
		case 3:
			pass3(src, dst, m, st.stride, tw, sign)
		case 4:
			pass4(src, dst, m, st.stride, tw, sign)
		case 5:
			pass5(src, dst, m, st.stride, tw, sign)
		}
		src, dst = dst, src
	}
	if len(p.stages)%2 == 1 {
		copy(x, src)
	}
}

// rot multiplies a by sign·i, the radix-4 root of unity.
func rot(a complex128, sign float64) complex128 {
	return complex(-sign*imag(a), sign*real(a))
}

// scale multiplies by a real factor in two products, not a complex
// multiply's four.
func scale(c float64, a complex128) complex128 {
	return complex(c*real(a), c*imag(a))
}

// The radix-r pass reads input j of butterfly (p, q) from
// src[q+s*(p+j*m)] and writes output k, times the stage twiddle
// tw[p*(r-1)+k-1], to dst[q+s*(r*p+k)].

func pass2(src, dst []complex128, m, s int, tw []complex128) {
	for p := 0; p < m; p++ {
		w := tw[p]
		x0 := src[s*p : s*p+s]
		x1 := src[s*(p+m):][:len(x0)]
		y0, y1 := dst[2*s*p:][:len(x0)], dst[2*s*p+s:][:len(x0)]
		for q := range x0 {
			a, b := x0[q], x1[q]
			y0[q] = a + b
			y1[q] = (a - b) * w
		}
	}
}

func pass3(src, dst []complex128, m, s int, tw []complex128, sign float64) {
	const h = 0.86602540378443864676 // sin(2π/3)
	for p := 0; p < m; p++ {
		w1, w2 := tw[2*p], tw[2*p+1]
		x0 := src[s*p : s*p+s]
		x1, x2 := src[s*(p+m):][:len(x0)], src[s*(p+2*m):][:len(x0)]
		o := 3 * s * p
		y0, y1, y2 := dst[o:][:len(x0)], dst[o+s:][:len(x0)], dst[o+2*s:][:len(x0)]
		for q := range x0 {
			a0, a1, a2 := x0[q], x1[q], x2[q]
			t1 := a1 + a2
			t2 := a0 - scale(0.5, t1)
			t3 := rot(a1-a2, sign*h)
			y0[q] = a0 + t1
			y1[q] = (t2 + t3) * w1
			y2[q] = (t2 - t3) * w2
		}
	}
}

func pass4(src, dst []complex128, m, s int, tw []complex128, sign float64) {
	for p := 0; p < m; p++ {
		w1, w2, w3 := tw[3*p], tw[3*p+1], tw[3*p+2]
		x0 := src[s*p : s*p+s]
		x1, x2, x3 := src[s*(p+m):][:len(x0)], src[s*(p+2*m):][:len(x0)], src[s*(p+3*m):][:len(x0)]
		o := 4 * s * p
		y0, y1 := dst[o:][:len(x0)], dst[o+s:][:len(x0)]
		y2, y3 := dst[o+2*s:][:len(x0)], dst[o+3*s:][:len(x0)]
		for q := range x0 {
			a0, a1, a2, a3 := x0[q], x1[q], x2[q], x3[q]
			t0, t1 := a0+a2, a0-a2
			t2, t3 := a1+a3, rot(a1-a3, sign)
			y0[q] = t0 + t2
			y1[q] = (t1 + t3) * w1
			y2[q] = (t0 - t2) * w2
			y3[q] = (t1 - t3) * w3
		}
	}
}

func pass5(src, dst []complex128, m, s int, tw []complex128, sign float64) {
	const (
		c1 = 0.30901699437494742410  // cos(2π/5)
		c2 = -0.80901699437494742410 // cos(4π/5)
		s1 = 0.95105651629515357212  // sin(2π/5)
		s2 = 0.58778525229247312917  // sin(4π/5)
	)
	for p := 0; p < m; p++ {
		w1, w2, w3, w4 := tw[4*p], tw[4*p+1], tw[4*p+2], tw[4*p+3]
		x0 := src[s*p : s*p+s]
		x1, x2 := src[s*(p+m):][:len(x0)], src[s*(p+2*m):][:len(x0)]
		x3, x4 := src[s*(p+3*m):][:len(x0)], src[s*(p+4*m):][:len(x0)]
		o := 5 * s * p
		y0, y1, y2 := dst[o:][:len(x0)], dst[o+s:][:len(x0)], dst[o+2*s:][:len(x0)]
		y3, y4 := dst[o+3*s:][:len(x0)], dst[o+4*s:][:len(x0)]
		for q := range x0 {
			a0 := x0[q]
			b1, d1 := x1[q]+x4[q], x1[q]-x4[q]
			b2, d2 := x2[q]+x3[q], x2[q]-x3[q]
			r1 := a0 + scale(c1, b1) + scale(c2, b2)
			r2 := a0 + scale(c2, b1) + scale(c1, b2)
			i1 := rot(scale(s1, d1)+scale(s2, d2), sign)
			i2 := rot(scale(s2, d1)-scale(s1, d2), sign)
			y0[q] = a0 + b1 + b2
			y1[q] = (r1 + i1) * w1
			y2[q] = (r2 + i2) * w2
			y3[q] = (r2 - i2) * w3
			y4[q] = (r1 - i1) * w4
		}
	}
}

// isSmooth reports whether n >= 1 has no prime factor above 5.
func isSmooth(n int) bool {
	for _, f := range []int{2, 3, 5} {
		for n%f == 0 {
			n /= f
		}
	}
	return n == 1
}

// smoothAtLeast returns the smallest 5-smooth integer >= n.
func smoothAtLeast(n int) int {
	if n < 1 {
		n = 1
	}
	for !isSmooth(n) {
		n++
	}
	return n
}

// bluestein evaluates n-point DFTs as m-point circular convolutions
// (m >= 2n-1 and 5-smooth) with the chirp c_t = exp(-iπt²/n):
// X_k = c_k·Σ_t (x_t·c_t)·conj(c_{k-t}).
type bluestein struct {
	n, m  int
	fft   *fftPlan
	chirp []complex128 // c_t, t < n
	// kernel is the m-point DFT of conj(c) wrapped onto the circle.
	kernel []complex128
}

func newBluestein(n, m int) *bluestein {
	b := &bluestein{n: n, m: m, fft: newFFTPlan(m), chirp: make([]complex128, n), kernel: make([]complex128, m)}
	for t := 0; t < n; t++ {
		// t² mod 2n keeps the angle exact for large t.
		t2 := (int64(t) * int64(t)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(t2) / float64(n))
		b.chirp[t] = complex(c, s)
		b.kernel[t] = complex(c, -s)
		if t > 0 {
			b.kernel[m-t] = complex(c, -s)
		}
	}
	b.fft.transform(b.kernel, make([]complex128, m), false)
	return b
}

// convolve expects the chirped input x_t·c_t in buf[:n] and leaves
// m·Σ_t (x_t·c_t)·conj(c_{k-t}) in buf[k] for k < n, so X_k is
// c_k·buf[k]/m and |X_k|² is |buf[k]|²/m². buf and work hold m elements.
func (b *bluestein) convolve(buf, work []complex128) {
	clear(buf[b.n:])
	b.fft.transform(buf, work, false)
	for i, k := range b.kernel {
		buf[i] *= k
	}
	b.fft.transform(buf, work, true)
}

// dft replaces x with its unnormalized DFT: directly when len(x) is
// 5-smooth, through Bluestein otherwise.
func dft(x []complex128) {
	n := len(x)
	if isSmooth(n) {
		newFFTPlan(n).transform(x, make([]complex128, n), false)
		return
	}
	b := newBluestein(n, smoothAtLeast(2*n-1))
	buf := make([]complex128, b.m)
	for t, c := range b.chirp {
		buf[t] = x[t] * c
	}
	b.convolve(buf, make([]complex128, b.m))
	inv := complex(1/float64(b.m), 0)
	for k, c := range b.chirp {
		x[k] = c * buf[k] * inv
	}
}

// FFT returns the discrete Fourier transform of x. The input length may
// be arbitrary: 5-smooth lengths run the mixed-radix Stockham FFT
// directly; other lengths use Bluestein's chirp-z transform over it.
// The input slice is not modified.
func FFT(x []complex128) []complex128 {
	if len(x) == 0 {
		return nil
	}
	out := make([]complex128, len(x))
	copy(out, x)
	dft(out)
	return out
}

// IFFT returns the inverse discrete Fourier transform of x (normalized
// by 1/n).
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	// IDFT(x) = conj(DFT(conj(x)))/n.
	out := make([]complex128, n)
	for i, v := range x {
		out[i] = complex(real(v), -imag(v))
	}
	dft(out)
	inv := 1 / float64(n)
	for i, v := range out {
		out[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return out
}

// FFTReal transforms a real-valued signal, returning the full complex
// spectrum.
func FFTReal(x []float64) []complex128 {
	if len(x) == 0 {
		return nil
	}
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	dft(cx)
	return cx
}

// Periodogram returns the power spectral density estimate of a real
// signal: P[k] = |X[k]|^2 / n for k in [0, n/2]. Index k corresponds to
// frequency k/n cycles per sample.
func Periodogram(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	p := newSignalPlan(n)
	p.spectrum(x)
	p.bluesteinPass(x)
	out := make([]float64, n/2+1)
	for k := range out {
		out[k] = p.power(k)
	}
	return out
}

// PeriodogramDirect computes the same power spectral density as
// Periodogram by evaluating the DFT sums directly in O(n^2); retained
// only to cross-validate the FFT path (see TestPeriodogramMatchesDirect)
// and for the ablation benchmarks. All production callers use
// Periodogram.
func PeriodogramDirect(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	half := n/2 + 1
	p := make([]float64, half)
	for k := 0; k < half; k++ {
		var re, im float64
		for t, v := range x {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s, c := math.Sincos(ang)
			re += v * c
			im += v * s
		}
		p[k] = (re*re + im*im) / float64(n)
	}
	return p
}

// Autocorrelation returns the biased sample autocorrelation of x at lags
// 0..len(x)-1, normalized so lag 0 equals 1 (unless x is constant, in
// which case all lags are 0). Computed in O(n log n) via the
// Wiener-Khinchin theorem: ACF = IFFT(|FFT(x_padded)|^2).
func Autocorrelation(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	centered, c0 := center(x)
	p := newSignalPlan(n)
	p.spectrum(centered)
	p.autocorrelation()
	scale := p.acfScale(c0)
	out := make([]float64, n)
	for lag := range out {
		out[lag] = p.acfRaw(lag) * scale
	}
	return out
}

// AutocorrelationDirect computes the same quantity in O(n^2); retained
// for cross-validation and the ablation benchmarks.
func AutocorrelationDirect(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c := make([]float64, n)
	for lag := 0; lag < n; lag++ {
		sum := 0.0
		for i := 0; i+lag < n; i++ {
			sum += (x[i] - mean) * (x[i+lag] - mean)
		}
		c[lag] = sum
	}
	if c[0] == 0 {
		return make([]float64, n)
	}
	c0 := c[0]
	for lag := range c {
		c[lag] /= c0
	}
	return c
}

// validateSignal is shared input checking for the analysis entry points.
func validateSignal(x []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("dsp: empty signal")
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dsp: signal sample %d is %v", i, v)
		}
	}
	return nil
}
