package dsp

import "math"

// signalPlan computes autocorrelations and periodograms of real signals
// of one length n through transforms and buffers it builds once.
//
// The ACF comes from the m-point power spectrum of the zero-padded
// signal, m the smallest even 5-smooth size >= 2n-1, which is enough
// padding for the circular correlation to equal the linear one. A real
// signal of even length m transforms as an m/2-point complex FFT of its
// samples packed pairwise into complex values, split into the m-point
// spectrum with the twiddle factors; the inverse runs the same steps
// backwards. The n-point periodogram is the even bins of that spectrum
// when m = 2n, which is when n itself is 5-smooth, and a Bluestein
// transform at convolution length m otherwise.
type signalPlan struct {
	n, m, h int // h = m/2
	half    *fftPlan
	twiddle []complex128 // exp(-2πik/m), k < h
	blue    *bluestein   // nil when m == 2n
	z, work []complex128 // h each
	// spec holds |X_k|² of the m-point spectrum for k <= h.
	spec []float64
	// bbuf and bwork are the Bluestein buffers, m each; pscale turns
	// |bbuf[k]|² into the periodogram's |X_k|²/n.
	bbuf, bwork []complex128
	pscale      float64
}

func newSignalPlan(n int) *signalPlan {
	m := 2 * smoothAtLeast(n)
	h := m / 2
	p := &signalPlan{
		n: n, m: m, h: h,
		half:    newFFTPlan(h),
		twiddle: make([]complex128, h),
		z:       make([]complex128, h),
		work:    make([]complex128, h),
		spec:    make([]float64, h+1),
	}
	for k := range p.twiddle {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(m))
		p.twiddle[k] = complex(c, s)
	}
	if m != 2*n {
		p.blue = newBluestein(n, m)
		p.bbuf = make([]complex128, m)
		p.bwork = make([]complex128, m)
		p.pscale = 1 / (float64(m) * float64(m) * float64(n))
	}
	return p
}

// center returns x minus its mean and the sum of squares of the result,
// the zero-lag autocovariance c0. Both are invariant under shuffling.
func center(x []float64) ([]float64, float64) {
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	out := make([]float64, len(x))
	c0 := 0.0
	for i, v := range x {
		d := v - mean
		out[i] = d
		c0 += d * d
	}
	return out, c0
}

// spectrum fills spec with the m-point power spectrum of x (len n)
// zero-padded to m.
func (p *signalPlan) spectrum(x []float64) {
	z, h := p.z, p.h
	pairs := p.n / 2
	for j := 0; j < pairs; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	rest := z[pairs:]
	if p.n%2 == 1 {
		rest[0] = complex(x[p.n-1], 0)
		rest = rest[1:]
	}
	clear(rest)
	p.half.transform(z, p.work, false)
	// With Z the packed transform and w_k the twiddle, 2·X_k =
	// (Z_k + conj Z_{h-k}) - i·w_k·(Z_k - conj Z_{h-k}); Z is
	// h-periodic and w_h = -1.
	re, im := real(z[0]), imag(z[0])
	p.spec[0] = (re + im) * (re + im)
	p.spec[h] = (re - im) * (re - im)
	for k := 1; k < h; k++ {
		a, b := z[k], z[h-k]
		b = complex(real(b), -imag(b))
		d := p.twiddle[k] * (a - b)
		x := a + b + complex(imag(d), -real(d))
		p.spec[k] = 0.25 * (real(x)*real(x) + imag(x)*imag(x))
	}
}

// autocorrelation inverts spec into the raw autocovariance: acfRaw(t)
// is m·Σ_s x_s·x_{s+t} for the x last passed to spectrum.
func (p *signalPlan) autocorrelation() {
	z, h := p.z, p.h
	for k := 0; k < h; k++ {
		sum, diff := p.spec[k]+p.spec[h-k], p.spec[k]-p.spec[h-k]
		// Z_k = sum + i·conj(w_k)·diff.
		c, s := real(p.twiddle[k]), imag(p.twiddle[k])
		z[k] = complex(sum+s*diff, c*diff)
	}
	p.half.transform(z, p.work, true)
}

// acfRaw returns the raw autocovariance at lag t < n; see
// autocorrelation.
func (p *signalPlan) acfRaw(t int) float64 {
	if t%2 == 0 {
		return real(p.z[t/2])
	}
	return imag(p.z[t/2])
}

// acfScale turns acfRaw values into the ACF normalized by c0, the
// zero-lag autocovariance. A constant signal (c0 = 0) has the all-zero
// ACF by convention.
func (p *signalPlan) acfScale(c0 float64) float64 {
	if c0 == 0 {
		return 0
	}
	return 1 / (float64(p.m) * c0)
}

// bluesteinPass runs the periodogram's own transform of x when it has
// one (n not 5-smooth); otherwise power reads the spectrum already
// computed by spectrum(x).
func (p *signalPlan) bluesteinPass(x []float64) {
	if p.blue == nil {
		return
	}
	for t, c := range p.blue.chirp {
		p.bbuf[t] = complex(x[t]*real(c), x[t]*imag(c))
	}
	p.blue.convolve(p.bbuf, p.bwork)
}

// power returns the periodogram |X_k|²/n at k <= n/2 for the x last
// passed to spectrum and bluesteinPass.
func (p *signalPlan) power(k int) float64 {
	if p.blue == nil {
		return p.spec[2*k] / float64(p.n)
	}
	v := p.bbuf[k]
	return (real(v)*real(v) + imag(v)*imag(v)) * p.pscale
}
