package rng

import (
	"math"
	"testing"
)

// geometricGrid returns the probabilities the equivalence tests sweep: the
// in-domain subset of the Bernoulli grid idea — a dense uniform grid over
// (0,1], the p=1 boundary, the subnormal neighbourhood, exact powers of two,
// and one-ulp perturbations around all of them (clamped to the domain).
func geometricGrid() []float64 {
	ps := []float64{
		1,
		math.SmallestNonzeroFloat64,
		2 * math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1074, 0x1p-1022, math.Nextafter(0x1p-1022, 0), // smallest normal and largest subnormal
		0x1p-53, 0x1p-52, 0x1p-24, 1 - 0x1p-53, 1 - 0x1p-52,
	}
	for i := 1; i <= 1000; i++ {
		ps = append(ps, float64(i)/1000)
	}
	for e := 1; e <= 60; e++ {
		ps = append(ps, math.Exp2(-float64(e)))
	}
	// One-ulp perturbations in both directions around everything so far,
	// keeping only values inside (0, 1].
	out := ps[:len(ps):len(ps)]
	for _, p := range ps {
		for _, q := range []float64{math.Nextafter(p, 2), math.Nextafter(p, -1)} {
			if q > 0 && q <= 1 {
				out = append(out, q)
			}
		}
	}
	return out
}

// referenceGeometric is the inverse-CDF geometric sample written out
// inline — ceil(ln(1-u) / ln(1-p)) from one Float64, clamped to 1, no
// draw at p == 1 — as the formula stood before Stream.Geometric delegated
// to Geometric.Draw. It is the fixed point both entry points are pinned
// against, so the draw sequence behind every golden cannot move silently.
func referenceGeometric(r *Stream, p float64) int {
	if p == 1 {
		return 1
	}
	u := r.Float64()
	k := int(math.Ceil(math.Log1p(-u) / math.Log1p(-p)))
	if k < 1 {
		k = 1
	}
	return k
}

// TestGeometricMatchesStream is the draw-contract proof: for every grid
// probability, Geometric.Draw and Stream.Geometric both produce the
// reference formula's values AND leave the stream at its positions, draw
// by draw.
func TestGeometricMatchesStream(t *testing.T) {
	for _, p := range geometricGrid() {
		g := NewGeometric(p)
		refStream := New(0x6e0)
		methodStream := New(0x6e0)
		samplerStream := New(0x6e0)
		for i := 0; i < 64; i++ {
			want := referenceGeometric(refStream, p)
			if got := methodStream.Geometric(p); got != want {
				t.Fatalf("p=%v draw %d: Stream.Geometric=%d, reference=%d", p, i, got, want)
			}
			if got := g.Draw(samplerStream); got != want {
				t.Fatalf("p=%v draw %d: Geometric.Draw=%d, reference=%d", p, i, got, want)
			}
			// Stream positions must agree after every draw (one Uint64 for
			// p in (0,1), none at p == 1); comparing the full generator
			// state is stricter than comparing one output.
			if *methodStream != *refStream || *samplerStream != *refStream {
				t.Fatalf("p=%v draw %d: stream states diverged from the reference", p, i)
			}
		}
	}
}

// TestGeometricSamplerOne: p == 1 always returns 1 without consuming
// randomness.
func TestGeometricSamplerOne(t *testing.T) {
	g := NewGeometric(1)
	r := New(1)
	before := *r
	if got := g.Draw(r); got != 1 {
		t.Fatalf("Draw(p=1) = %d, want 1", got)
	}
	if *r != before {
		t.Fatal("Geometric(p=1) consumed randomness")
	}
}

// TestGeometricSamplerZeroValue: the zero value never succeeds and consumes
// nothing.
func TestGeometricSamplerZeroValue(t *testing.T) {
	var g Geometric
	r := New(1)
	before := *r
	if got := g.Draw(r); got != math.MaxInt {
		t.Fatalf("zero-value Draw = %d, want math.MaxInt", got)
	}
	if *r != before {
		t.Fatal("zero-value Geometric consumed randomness")
	}
}

// TestGeometricSamplerDomainPanics pins the domain of both entry points: p
// outside (0,1] — including NaN, which slips past p <= 0 — must panic.
func TestGeometricSamplerDomainPanics(t *testing.T) {
	for _, p := range []float64{0, -0.25, 1.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometric(%v) did not panic", p)
				}
			}()
			NewGeometric(p)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Stream.Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

// TestGeometricSamplerMinimumOne: samples never fall below 1 even at p values
// where the inverse-CDF ratio rounds to 0.
func TestGeometricSamplerMinimumOne(t *testing.T) {
	for _, p := range []float64{1 - 0x1p-53, 0.999, 0.5} {
		g := NewGeometric(p)
		r := New(7)
		for i := 0; i < 4096; i++ {
			if k := g.Draw(r); k < 1 {
				t.Fatalf("p=%v: Draw = %d < 1", p, k)
			}
		}
	}
}

func BenchmarkStreamGeometric(b *testing.B) {
	r := New(1)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink = r.Geometric(0.001)
	}
	_ = sink
}

func BenchmarkGeometricDraw(b *testing.B) {
	r := New(1)
	g := NewGeometric(0.001)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink = g.Draw(r)
	}
	_ = sink
}
