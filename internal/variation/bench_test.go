package variation

import (
	"sync"
	"testing"

	"repro/internal/mathx"
)

// Each benchmark's sampler is built lazily and exactly once per
// process, and only when its own benchmark runs: the dense 64x64
// factorization alone is a 4096-point O(n^3) Cholesky (tens of
// seconds), which must be paid neither per iteration nor by a process
// benchmarking only the circulant path (`go test -run '^$' -bench
// BenchmarkFieldCirculant -benchmem ./internal/variation`).
type lazyDense struct {
	once sync.Once
	s    *Sampler
}

func (l *lazyDense) get(w, h int) *Sampler {
	l.once.Do(func() {
		s, err := NewSampler(gridPoints(w, h), DefaultVth())
		if err != nil {
			panic(err)
		}
		l.s = s
	})
	return l.s
}

type lazyCirculant struct {
	once sync.Once
	s    *CirculantSampler
}

func (l *lazyCirculant) get(w, h int) *CirculantSampler {
	l.once.Do(func() {
		s, err := NewCirculantSampler(w, h, DefaultVth())
		if err != nil {
			panic(err)
		}
		l.s = s
	})
	return l.s
}

var (
	benchDense16   lazyDense
	benchDense64   lazyDense
	benchCirc16    lazyCirculant
	benchCirc64    lazyCirculant
	benchCirc128   lazyCirculant
	benchCirc288co lazyCirculant // 288-core die at 8x8 cells per core
)

func benchDenseDraw(b *testing.B, s *Sampler) {
	rng := mathx.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

func benchCirculantDraw(b *testing.B, s *CirculantSampler) {
	rng := mathx.NewRNG(1)
	dst := make([]float64, s.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleTo(dst, rng)
	}
}

func BenchmarkFieldDense16x16(b *testing.B) { benchDenseDraw(b, benchDense16.get(16, 16)) }

func BenchmarkFieldDense64x64(b *testing.B) { benchDenseDraw(b, benchDense64.get(64, 64)) }

func BenchmarkFieldCirculant16x16(b *testing.B) { benchCirculantDraw(b, benchCirc16.get(16, 16)) }

func BenchmarkFieldCirculant64x64(b *testing.B) { benchCirculantDraw(b, benchCirc64.get(64, 64)) }

func BenchmarkFieldCirculant128x128(b *testing.B) {
	benchCirculantDraw(b, benchCirc128.get(128, 128))
}

// 288 cores at 8x8 field cells per core on a 2:1 die: the fine-grid
// atlas case the dense path could never reach (an 18432-point factor
// would be 2.7 GB).
func BenchmarkFieldCirculant288core(b *testing.B) {
	benchCirculantDraw(b, benchCirc288co.get(192, 96))
}
