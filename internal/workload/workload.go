// Package workload generates the synthetic inputs for every experiment:
// subscription populations with controlled value distributions (uniform,
// Zipf-skewed, clustered) and cover structure (planted parent/child pairs
// with tunable slack), event streams, the adversarial extremal
// rectangles of Theorem 4.1, and the successor walk's near-miss worst
// case. All generators are deterministic for a given seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"sfccover/internal/geom"
	"sfccover/internal/subscription"
)

// SubDist selects the distribution of subscription range positions.
type SubDist string

func (d SubDist) validate() error {
	switch d {
	case DistUniform, DistZipf, DistClustered, DistHotspot:
		return nil
	default:
		return fmt.Errorf("workload: unknown distribution %q", d)
	}
}

const (
	// DistUniform places range centers uniformly over the domain.
	DistUniform SubDist = "uniform"
	// DistZipf skews range centers toward low attribute values with a
	// Zipf(1.3) law, modelling hot topics.
	DistZipf SubDist = "zipf"
	// DistClustered draws range centers from a few Gaussian clusters,
	// modelling interest communities.
	DistClustered SubDist = "clustered"
	// DistHotspot drops a HotspotFrac share of the range centers into one
	// tiny box and spreads the rest uniformly — the adversarial clustering
	// for curve-prefix partitions: the box maps to one short stretch of
	// the space filling curve, so one key slice absorbs almost the whole
	// population (exactly the locality SFCs are chosen to preserve; cf.
	// the Onion Curve's clustering analysis).
	DistHotspot SubDist = "hotspot"
)

// SubSpec parameterizes a subscription population.
type SubSpec struct {
	// Schema is the attribute schema (required).
	Schema *subscription.Schema
	// N is the number of subscriptions to generate.
	N int
	// Dist selects the center distribution; default DistUniform.
	Dist SubDist
	// WidthFrac is the mean range width as a fraction of the domain
	// (default 0.1). Actual widths are uniform in [0.5, 1.5] times the mean.
	WidthFrac float64
	// UnconstrainedProb leaves an attribute unconstrained with this
	// probability, mimicking real subscriptions that mention only some
	// attributes.
	UnconstrainedProb float64
	// Seed drives the generator.
	Seed int64
	// Clusters is the number of Gaussian clusters for DistClustered
	// (default 5).
	Clusters int
	// HotspotFrac is the share of subscriptions drawn inside the hotspot
	// box for DistHotspot (default 0.9).
	HotspotFrac float64
	// HotspotWidthFrac is the hotspot box's side length as a fraction of
	// the domain for DistHotspot (default 0.05).
	HotspotWidthFrac float64
}

// Subscriptions generates a population per the spec.
func Subscriptions(spec SubSpec) ([]*subscription.Subscription, error) {
	if spec.Schema == nil {
		return nil, fmt.Errorf("workload: spec needs a schema")
	}
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative N")
	}
	if spec.Dist == "" {
		spec.Dist = DistUniform
	}
	if err := spec.Dist.validate(); err != nil {
		return nil, err
	}
	if spec.WidthFrac == 0 {
		spec.WidthFrac = 0.1
	}
	if spec.WidthFrac < 0 || spec.WidthFrac > 1 {
		return nil, fmt.Errorf("workload: width fraction %v out of range (0,1]", spec.WidthFrac)
	}
	if spec.Clusters <= 0 {
		spec.Clusters = 5
	}
	if spec.HotspotFrac == 0 {
		spec.HotspotFrac = 0.9
	}
	if spec.HotspotFrac < 0 || spec.HotspotFrac > 1 {
		return nil, fmt.Errorf("workload: hotspot fraction %v out of [0,1]", spec.HotspotFrac)
	}
	if spec.HotspotWidthFrac == 0 {
		spec.HotspotWidthFrac = 0.05
	}
	if spec.HotspotWidthFrac < 0 || spec.HotspotWidthFrac > 1 {
		return nil, fmt.Errorf("workload: hotspot width fraction %v out of (0,1]", spec.HotspotWidthFrac)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	domain := float64(spec.Schema.MaxValue()) + 1

	var zipf *rand.Zipf
	if spec.Dist == DistZipf {
		zipf = rand.NewZipf(rng, 1.3, 1, uint64(spec.Schema.MaxValue()))
	}
	var centers [][]float64
	if spec.Dist == DistClustered {
		centers = make([][]float64, spec.Clusters)
		for i := range centers {
			c := make([]float64, spec.Schema.NumAttrs())
			for j := range c {
				c[j] = rng.Float64() * domain
			}
			centers[i] = c
		}
	}
	var hotBase []float64
	if spec.Dist == DistHotspot {
		hotBase = make([]float64, spec.Schema.NumAttrs())
		for j := range hotBase {
			hotBase[j] = rng.Float64() * domain * (1 - spec.HotspotWidthFrac)
		}
	}

	out := make([]*subscription.Subscription, 0, spec.N)
	for i := 0; i < spec.N; i++ {
		s := subscription.New(spec.Schema)
		var cluster []float64
		if centers != nil {
			cluster = centers[rng.Intn(len(centers))]
		}
		inHot := hotBase != nil && rng.Float64() < spec.HotspotFrac
		for a, attr := range spec.Schema.Attrs() {
			if rng.Float64() < spec.UnconstrainedProb {
				continue
			}
			var center float64
			switch spec.Dist {
			case DistZipf:
				center = float64(zipf.Uint64())
			case DistClustered:
				center = cluster[a] + rng.NormFloat64()*domain/12
			case DistHotspot:
				if inHot {
					center = hotBase[a] + rng.Float64()*spec.HotspotWidthFrac*domain
				} else {
					center = rng.Float64() * domain
				}
			default:
				center = rng.Float64() * domain
			}
			center = math.Min(math.Max(center, 0), domain-1)
			width := spec.WidthFrac * domain * (0.5 + rng.Float64())
			lo := math.Max(center-width/2, 0)
			hi := math.Min(center+width/2, domain-1)
			if lo > hi {
				lo = hi
			}
			if err := s.SetRange(attr, uint32(lo), uint32(hi)); err != nil {
				return nil, fmt.Errorf("workload: %w", err)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// CoverPair is a planted covering relation: Parent covers Child.
type CoverPair struct {
	Parent, Child *subscription.Subscription
}

// CoverSpec parameterizes planted-cover generation for recall experiments.
type CoverSpec struct {
	// Schema is the attribute schema (required).
	Schema *subscription.Schema
	// N is the number of pairs.
	N int
	// SlackFrac is the mean one-sided slack between child and parent edges
	// as a fraction of the domain. Small slack plants "tight" covers that
	// sit in the approximation's blind corner; generous slack plants the
	// paper's "well distributed" regime.
	SlackFrac float64
	// WidthFrac is the child width fraction (default 0.15).
	WidthFrac float64
	// Seed drives the generator.
	Seed int64
}

// Covers generates planted parent/child pairs.
func Covers(spec CoverSpec) ([]CoverPair, error) {
	if spec.Schema == nil {
		return nil, fmt.Errorf("workload: spec needs a schema")
	}
	if spec.SlackFrac <= 0 || spec.SlackFrac > 0.5 {
		return nil, fmt.Errorf("workload: slack fraction %v out of range (0,0.5]", spec.SlackFrac)
	}
	if spec.WidthFrac == 0 {
		spec.WidthFrac = 0.15
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	domain := float64(spec.Schema.MaxValue()) + 1
	maxV := spec.Schema.MaxValue()
	out := make([]CoverPair, 0, spec.N)
	for i := 0; i < spec.N; i++ {
		child := subscription.New(spec.Schema)
		parent := subscription.New(spec.Schema)
		for _, attr := range spec.Schema.Attrs() {
			width := spec.WidthFrac * domain * (0.5 + rng.Float64())
			margin := spec.SlackFrac * domain * 2 // room for the parent
			lo := margin + rng.Float64()*(domain-width-2*margin)
			hi := lo + width
			if err := child.SetRange(attr, uint32(lo), uint32(hi)); err != nil {
				return nil, fmt.Errorf("workload: %w", err)
			}
			slackLo := rng.Float64() * spec.SlackFrac * domain
			slackHi := rng.Float64() * spec.SlackFrac * domain
			pLo := lo - slackLo
			pHi := hi + slackHi
			if pLo < 0 {
				pLo = 0
			}
			if pHi > float64(maxV) {
				pHi = float64(maxV)
			}
			if err := parent.SetRange(attr, uint32(pLo), uint32(pHi)); err != nil {
				return nil, fmt.Errorf("workload: %w", err)
			}
		}
		out = append(out, CoverPair{Parent: parent, Child: child})
	}
	return out, nil
}

// EventSpec parameterizes an event stream.
type EventSpec struct {
	// Schema is the attribute schema (required).
	Schema *subscription.Schema
	// N is the number of events.
	N int
	// Dist selects the value distribution (uniform or zipf).
	Dist SubDist
	// Seed drives the generator.
	Seed int64
}

// Events generates an event stream per the spec.
func Events(spec EventSpec) ([]subscription.Event, error) {
	if spec.Schema == nil {
		return nil, fmt.Errorf("workload: spec needs a schema")
	}
	if spec.Dist == "" {
		spec.Dist = DistUniform
	}
	if err := spec.Dist.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	var zipf *rand.Zipf
	if spec.Dist == DistZipf {
		zipf = rand.NewZipf(rng, 1.3, 1, uint64(spec.Schema.MaxValue()))
	}
	out := make([]subscription.Event, 0, spec.N)
	for i := 0; i < spec.N; i++ {
		e := make(subscription.Event, spec.Schema.NumAttrs())
		for a := range e {
			if zipf != nil {
				e[a] = uint32(zipf.Uint64())
			} else {
				e[a] = uint32(rng.Int63n(int64(spec.Schema.MaxValue()) + 1))
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// AdversarialExtremal builds the Theorem 4.1 lower-bound family: an
// extremal rectangle in d dimensions whose shortest side (dimension d) has
// length 2^gamma − 1 and whose other sides have bit length gamma + alpha,
// maximizing the number of runs an exhaustive search must visit.
func AdversarialExtremal(d, k, alpha, gamma int) (geom.Extremal, error) {
	if gamma < 1 || gamma+alpha > k {
		return geom.Extremal{}, fmt.Errorf("workload: need 1 <= gamma and gamma+alpha <= k, got gamma=%d alpha=%d k=%d", gamma, alpha, k)
	}
	lens := make([]uint64, d)
	for i := 0; i < d-1; i++ {
		lens[i] = 1<<uint(gamma+alpha) - 1 // b(ℓ_i) = gamma + alpha
	}
	lens[d-1] = 1<<uint(gamma) - 1 // the short side: gamma ones
	return geom.NewExtremal(lens, k)
}

// RandomExtremal builds a random extremal rectangle whose aspect ratio is
// exactly alpha: side bit-lengths are drawn between bmin and bmin+alpha
// with both extremes present.
func RandomExtremal(rng *rand.Rand, d, k, alpha int) (geom.Extremal, error) {
	if alpha < 0 || alpha >= k {
		return geom.Extremal{}, fmt.Errorf("workload: alpha %d out of range [0,%d)", alpha, k)
	}
	bmin := 1 + rng.Intn(k-alpha)
	bmax := bmin + alpha
	lens := make([]uint64, d)
	randLen := func(b int) uint64 {
		// A b-bit number: top bit set, the rest random.
		return 1<<uint(b-1) | uint64(rng.Int63n(1<<uint(b-1)))
	}
	for i := range lens {
		b := bmin + rng.Intn(alpha+1)
		lens[i] = randLen(b)
	}
	// Force the extremes so the aspect ratio is exactly alpha.
	lens[0] = randLen(bmax)
	lens[d-1] = randLen(bmin)
	return geom.NewExtremal(lens, k)
}

// NearMiss builds the successor walk's worst case: n points of the
// universe [0, 2^k−1]^d that each fail to dominate query by exactly one
// coordinate. With mid = (2^k−1)/2 the query is (mid, …, mid); every
// point is uniform in [mid, 2^k−1] in all coordinates but one chosen
// uniformly, which lies in [mid − mid/4, mid − 1]. The query has no
// dominator, and the stored keys lie scattered between the runs of its
// region, so the walk stops at a large share of them: a query that is
// all steps. It is the shape of subscriptions sharing a popular bound on
// one attribute and a newcomer slightly wider on it.
func NearMiss(d, k, n int, seed int64) (points [][]uint32, query []uint32, err error) {
	if d < 1 || k < 4 || k > 32 {
		return nil, nil, fmt.Errorf("workload: NearMiss needs d >= 1 and 4 <= k <= 32, got d=%d k=%d", d, k)
	}
	rng := rand.New(rand.NewSource(seed))
	mid := int64(1)<<uint(k)/2 - 1
	query = make([]uint32, d)
	for i := range query {
		query[i] = uint32(mid)
	}
	points = make([][]uint32, n)
	for i := range points {
		p := make([]uint32, d)
		for j := range p {
			p[j] = uint32(mid + rng.Int63n(mid+2)) // [mid, 2^k−1]
		}
		p[rng.Intn(d)] = uint32(mid - 1 - rng.Int63n(mid/4)) // [mid − mid/4, mid − 1]
		points[i] = p
	}
	return points, query, nil
}
