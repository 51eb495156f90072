package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"sfccover/internal/subscription"
)

func testSchema() *subscription.Schema {
	return subscription.MustSchema(10, "a", "b")
}

func TestSubscriptionsValidation(t *testing.T) {
	if _, err := Subscriptions(SubSpec{}); err == nil {
		t.Error("missing schema must fail")
	}
	if _, err := Subscriptions(SubSpec{Schema: testSchema(), N: -1}); err == nil {
		t.Error("negative N must fail")
	}
	if _, err := Subscriptions(SubSpec{Schema: testSchema(), N: 1, WidthFrac: 2}); err == nil {
		t.Error("width > 1 must fail")
	}
	if _, err := Subscriptions(SubSpec{Schema: testSchema(), N: 1, Dist: "bimodal"}); err == nil {
		t.Error("unknown distribution must fail")
	}
	if _, err := Events(EventSpec{Schema: testSchema(), N: 1, Dist: "bimodal"}); err == nil {
		t.Error("unknown event distribution must fail")
	}
}

func TestSubscriptionsDeterministicAndInDomain(t *testing.T) {
	schema := testSchema()
	for _, dist := range []SubDist{DistUniform, DistZipf, DistClustered, DistHotspot} {
		spec := SubSpec{Schema: schema, N: 200, Dist: dist, Seed: 42, UnconstrainedProb: 0.2}
		a, err := Subscriptions(spec)
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		b, err := Subscriptions(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != 200 {
			t.Fatalf("%s: got %d subs", dist, len(a))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("%s: generation not deterministic at %d", dist, i)
			}
			for j := 0; j < schema.NumAttrs(); j++ {
				r := a[i].Range(j)
				if r.Hi > schema.MaxValue() || r.Lo > r.Hi {
					t.Fatalf("%s: invalid range %+v", dist, r)
				}
			}
		}
	}
}

func TestSubscriptionsDistinctSeedsDiffer(t *testing.T) {
	schema := testSchema()
	a, _ := Subscriptions(SubSpec{Schema: schema, N: 50, Seed: 1})
	b, _ := Subscriptions(SubSpec{Schema: schema, N: 50, Seed: 2})
	same := 0
	for i := range a {
		if a[i].Equal(b[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestZipfSkewsLow(t *testing.T) {
	schema := testSchema()
	subs, err := Subscriptions(SubSpec{Schema: schema, N: 500, Dist: DistZipf, Seed: 3, WidthFrac: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	lowCenters := 0
	for _, s := range subs {
		r := s.Range(0)
		center := (uint64(r.Lo) + uint64(r.Hi)) / 2
		if center < uint64(schema.MaxValue())/4 {
			lowCenters++
		}
	}
	if frac := float64(lowCenters) / float64(len(subs)); frac < 0.6 {
		t.Fatalf("zipf should concentrate low: only %.2f below first quartile", frac)
	}
}

func TestHotspotConcentrates(t *testing.T) {
	schema := testSchema()
	spec := SubSpec{
		Schema: schema, N: 600, Dist: DistHotspot, Seed: 9,
		WidthFrac: 0.02, HotspotFrac: 0.8, HotspotWidthFrac: 0.05,
	}
	subs, err := Subscriptions(spec)
	if err != nil {
		t.Fatal(err)
	}
	// At least ~HotspotFrac of the centers must land in one box 1/8 of
	// the domain wide on every attribute (the box plus range-width slop).
	domain := float64(schema.MaxValue()) + 1
	centers := make([][]float64, len(subs))
	for i, s := range subs {
		c := make([]float64, schema.NumAttrs())
		for j := range c {
			r := s.Range(j)
			c[j] = (float64(r.Lo) + float64(r.Hi)) / 2
		}
		centers[i] = c
	}
	inBox := 0
	for _, probe := range centers {
		n := 0
		for _, c := range centers {
			ok := true
			for j := range c {
				if c[j] < probe[j]-domain/16 || c[j] > probe[j]+domain/16 {
					ok = false
					break
				}
			}
			if ok {
				n++
			}
		}
		if n > inBox {
			inBox = n
		}
	}
	if frac := float64(inBox) / float64(len(subs)); frac < 0.7 {
		t.Fatalf("hotspot should concentrate: densest box holds only %.2f of the population", frac)
	}
	if _, err := Subscriptions(SubSpec{Schema: schema, N: 1, Dist: DistHotspot, HotspotFrac: 2}); err == nil {
		t.Error("hotspot fraction > 1 must fail")
	}
}

func TestCoversPlantRealCovers(t *testing.T) {
	schema := testSchema()
	if _, err := Covers(CoverSpec{Schema: schema, N: 1, SlackFrac: 0}); err == nil {
		t.Error("zero slack must fail")
	}
	pairs, err := Covers(CoverSpec{Schema: schema, N: 300, SlackFrac: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 300 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if !p.Parent.Covers(p.Child) {
			t.Fatalf("pair %d: parent %v does not cover child %v", i, p.Parent, p.Child)
		}
	}
}

func TestEventsGeneration(t *testing.T) {
	schema := testSchema()
	if _, err := Events(EventSpec{}); err == nil {
		t.Error("missing schema must fail")
	}
	evs, err := Events(EventSpec{Schema: schema, N: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 100 {
		t.Fatalf("got %d events", len(evs))
	}
	for _, e := range evs {
		if len(e) != schema.NumAttrs() {
			t.Fatalf("event arity %d", len(e))
		}
		for _, v := range e {
			if v > schema.MaxValue() {
				t.Fatalf("event value %d out of domain", v)
			}
		}
	}
	evs2, _ := Events(EventSpec{Schema: schema, N: 100, Seed: 5})
	for i := range evs {
		for a := range evs[i] {
			if evs[i][a] != evs2[i][a] {
				t.Fatal("event generation not deterministic")
			}
		}
	}
	if _, err := Events(EventSpec{Schema: schema, N: 10, Dist: DistZipf, Seed: 5}); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialExtremal(t *testing.T) {
	if _, err := AdversarialExtremal(2, 8, 7, 2); err == nil {
		t.Error("gamma+alpha > k must fail")
	}
	e, err := AdversarialExtremal(3, 12, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.AspectRatio(); got != 2 {
		t.Fatalf("aspect ratio %d, want 2", got)
	}
	if e.Len[2] != 15 {
		t.Fatalf("shortest side %d, want 15", e.Len[2])
	}
	if e.Len[0] != 63 || e.Len[1] != 63 {
		t.Fatalf("long sides %v, want 63", e.Len[:2])
	}
}

func TestRandomExtremalAspectRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for alpha := 0; alpha < 6; alpha++ {
		for trial := 0; trial < 50; trial++ {
			e, err := RandomExtremal(rng, 4, 16, alpha)
			if err != nil {
				t.Fatal(err)
			}
			if got := e.AspectRatio(); got != alpha {
				t.Fatalf("aspect ratio %d, want %d (lens %v)", got, alpha, e.Len)
			}
		}
	}
	if _, err := RandomExtremal(rng, 2, 8, 8); err == nil {
		t.Error("alpha >= k must fail")
	}
}

// TestNearMissFailsByOneCoordinate: every point misses the query in
// exactly one coordinate, by at most mid/4, and the population is a
// function of the seed.
func TestNearMissFailsByOneCoordinate(t *testing.T) {
	if _, _, err := NearMiss(4, 3, 10, 1); err == nil {
		t.Error("k < 4 leaves no room below mid and must fail")
	}
	for _, k := range []int{4, 10, 32} {
		pts, q, err := NearMiss(4, k, 500, 7)
		if err != nil {
			t.Fatal(err)
		}
		mid := uint32(1)<<uint(k-1) - 1
		failing := make([]int, len(q))
		for _, p := range pts {
			below := 0
			for j, v := range p {
				if q[j] != mid {
					t.Fatalf("k=%d: query %v, want all %d", k, q, mid)
				}
				if v < mid {
					below++
					failing[j]++
					if v < mid-mid/4 {
						t.Fatalf("k=%d: point %v misses by more than mid/4", k, p)
					}
				}
			}
			if below != 1 {
				t.Fatalf("k=%d: point %v is below the query in %d coordinates, want 1", k, p, below)
			}
		}
		for j, n := range failing {
			if n == 0 {
				t.Errorf("k=%d: no point fails in coordinate %d", k, j)
			}
		}
		again, _, _ := NearMiss(4, k, 500, 7)
		other, _, _ := NearMiss(4, k, 500, 8)
		if !reflect.DeepEqual(pts, again) || reflect.DeepEqual(pts, other) {
			t.Errorf("k=%d: population must depend on the seed and on nothing else", k)
		}
	}
}
