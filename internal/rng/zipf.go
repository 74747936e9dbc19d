package rng

import "math"

// Zipf draws keys from [0, n) with a Zipf(theta) distribution, theta in
// (0, 1) — the YCSB/Gray "zipfian" generator (Gray et al., "Quickly
// Generating Billion-Record Synthetic Databases", SIGMOD '94). The skew
// convention matches the STM literature's hashtable benchmarks: rank k is
// drawn with probability proportional to 1/k^theta, so theta → 0 is
// uniform and theta → 1 approaches 1/k. (math/rand's Zipf wants s > 1 and
// cannot express this range, hence the stdlib-only reimplementation.)
//
// A draw past the two hottest ranks costs one float64 pow call; the
// zeta-sum setup is O(n) once. Not safe for concurrent use; create one per
// goroutine, like RNG.
type Zipf struct {
	r     *RNG
	n     uint64
	theta float64
	// Gray's closed-form inverse-CDF constants.
	alpha float64
	zetan float64
	eta   float64
	half  float64 // zeta(2, theta), the two-element partial sum
	edge1 float64 // 1 + 0.5^theta: u·zetan below it draws rank 0 or 1
}

// NewZipf returns a Zipf(theta) sampler over [0, n) driven by r. theta == 0
// is the uniform limit the doc comment above promises: Next then draws
// exactly like RNG.Intn (same reduction of the same stream), so callers no
// longer special-case "zipf 0 means uniform" themselves. Panics if n == 0
// or theta is outside [0, 1).
func NewZipf(r *RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if theta == 0 {
		return &Zipf{r: r, n: n}
	}
	if theta < 0 || theta >= 1 {
		panic("rng: NewZipf theta must be in [0, 1)")
	}
	zetan := zeta(n, theta)
	z := &Zipf{
		r:     r,
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		half:  zeta(2, theta),
		edge1: 1 + math.Pow(0.5, theta),
	}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.half/zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next rank in [0, n): rank 0 is the hottest key. Callers
// that want hot keys scattered across the key space should permute the rank
// (e.g. multiply by a constant mod n) rather than use it directly.
func (z *Zipf) Next() uint64 {
	if z.theta == 0 {
		// Uniform limit: one draw, reduced exactly like RNG.Intn so key
		// streams match what "theta <= 0 ⇒ Intn" callers used to produce.
		return (z.r.Uint64() >> 33) % z.n
	}
	u := float64(z.r.Uint64()>>11) / (1 << 53) // uniform [0, 1)
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.edge1 {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Theta returns the configured skew.
func (z *Zipf) Theta() float64 { return z.theta }
