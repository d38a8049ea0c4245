package dsp

import (
	"testing"

	"repro/internal/stats"
)

func benchSignal(n int) []float64 {
	rng := stats.NewRNG(1)
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func BenchmarkFFTPow2(b *testing.B) {
	x := benchSignal(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTReal(x)
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	x := benchSignal(4095) // forces the chirp-z path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFTReal(x)
	}
}

func BenchmarkPeriodogram(b *testing.B) {
	x := benchSignal(7200) // 2 h at 1 s
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Periodogram(x)
	}
}

func BenchmarkAutocorrelationSizes(b *testing.B) {
	for _, n := range []int{1800, 7200, 86400} {
		x := benchSignal(n)
		b.Run(itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Autocorrelation(x)
			}
		})
	}
}

func BenchmarkDetectTypicalFlow(b *testing.B) {
	// A 2 h client-object flow at 2 s bins with a 60 s period — the
	// workhorse case of the §5.1 analysis. n=3600 is 5-smooth, the rare
	// case whose periodogram is the even bins of the ACF's spectrum;
	// BenchmarkDetectFlowLengths covers the lengths real flows have.
	x := make([]float64, 3600)
	for i := 0; i < len(x); i += 30 {
		x[i] = 1
	}
	cfg := DefaultDetectorConfig()
	rng := stats.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := Detect(x, cfg, rng); err != nil || !ok {
			b.Fatalf("detect: %v %v", ok, err)
		}
	}
}

// BenchmarkDetectFlowLengths runs Detect at the signal lengths of the
// Fig. 5 flow mix, whose lengths are mostly not 5-smooth: 2577 and 3450
// (even, not smooth), 3457 (prime) and 3600 (smooth). The periodic
// signal runs every shuffle; the noise signal is where early stopping
// pays.
func BenchmarkDetectFlowLengths(b *testing.B) {
	for _, n := range []int{2577, 3450, 3457, 3600} {
		periodic := make([]float64, n)
		for i := 0; i < n; i += 30 {
			periodic[i] = 1
		}
		noise := make([]float64, n)
		r := stats.NewRNG(uint64(n))
		for i := range noise {
			if r.Bool(0.05) {
				noise[i] = 1
			}
		}
		for _, c := range []struct {
			name string
			x    []float64
		}{{"periodic", periodic}, {"noise", noise}} {
			b.Run(c.name+"-n"+itoa(n), func(b *testing.B) {
				cfg := DefaultDetectorConfig()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := Detect(c.x, cfg, stats.NewRNG(2)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func itoa(n int) string {
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
