package experiments

import (
	"math/rand"
	"testing"

	"sfccover/internal/dominance"
	"sfccover/internal/geom"
)

func randomPoints(rng *rand.Rand, n, d, k int) [][]uint32 {
	pts := make([][]uint32, n)
	for i := range pts {
		p := make([]uint32, d)
		for j := range p {
			p[j] = uint32(rng.Int63n(1 << uint(k)))
		}
		pts[i] = p
	}
	return pts
}

// TestKDTreeAgreesWithBaselines holds E9's k-d tree to the dominance
// package's exact searchers: the exhaustive SFC query and the linear scan
// give the same found/not-found answer on every query, before and after
// half the points are deleted; what it returns dominates the query; and a
// point dominates itself.
func TestKDTreeAgreesWithBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cfg := range []dominance.Config{{Dims: 2, Bits: 6}, {Dims: 3, Bits: 4}, {Dims: 4, Bits: 3}} {
		idx := dominance.MustIndex(cfg)
		lin := dominance.NewLinear()
		kd := newKDTree(cfg.Dims)
		pts := randomPoints(rng, 80, cfg.Dims, cfg.Bits)
		for i, p := range pts {
			for _, s := range []dominance.Searcher{idx, lin, kd} {
				s.Insert(p, uint64(i))
			}
		}
		agree := func(phase string) {
			t.Helper()
			for trial := 0; trial < 150; trial++ {
				q := randomPoints(rng, 1, cfg.Dims, cfg.Bits)[0]
				id, okKD := kd.QueryDominating(q)
				_, okSFC := idx.QueryDominating(q)
				_, okLin := lin.QueryDominating(q)
				if okKD != okSFC || okKD != okLin {
					t.Fatalf("d=%d %s q=%v: kd=%v sfc=%v lin=%v", cfg.Dims, phase, q, okKD, okSFC, okLin)
				}
				if okKD && !geom.Dominates(pts[id], q) {
					t.Fatalf("d=%d %s: returned point %v does not dominate %v", cfg.Dims, phase, pts[id], q)
				}
			}
		}
		agree("full")
		for i := 0; i < len(pts)/2; i++ {
			if !kd.Delete(pts[i], uint64(i)) || !idx.Delete(pts[i], uint64(i)) || !lin.Delete(pts[i], uint64(i)) {
				t.Fatalf("d=%d: delete %d failed", cfg.Dims, i)
			}
			if kd.Delete(pts[i], uint64(i)) {
				t.Fatalf("d=%d: double delete %d succeeded", cfg.Dims, i)
			}
		}
		if kd.Len() != len(pts)-len(pts)/2 {
			t.Fatalf("d=%d: Len = %d after deletes", cfg.Dims, kd.Len())
		}
		agree("half deleted")
	}
	// A point equal to the query dominates it (covering includes equality).
	kd := newKDTree(3)
	p := []uint32{7, 3, 31}
	kd.Insert(p, 42)
	if id, ok := kd.QueryDominating(p); !ok || id != 42 {
		t.Fatalf("self-dominance failed: %d %v", id, ok)
	}
}

func TestKDTreeDeepDeleteThenQuery(t *testing.T) {
	kd := newKDTree(2)
	lin := dominance.NewLinear()
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(rng, 100, 2, 6)
	for i, p := range pts {
		kd.Insert(p, uint64(i))
		lin.Insert(p, uint64(i))
	}
	// Delete a random 80%.
	perm := rng.Perm(100)
	for _, i := range perm[:80] {
		if !kd.Delete(pts[i], uint64(i)) || !lin.Delete(pts[i], uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for trial := 0; trial < 300; trial++ {
		q := randomPoints(rng, 1, 2, 6)[0]
		_, okKD := kd.QueryDominating(q)
		_, okLin := lin.QueryDominating(q)
		if okKD != okLin {
			t.Fatalf("kd/linear disagree at %v: %v vs %v", q, okKD, okLin)
		}
	}
}
