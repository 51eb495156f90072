package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sfccover/internal/subscription"
)

func TestFindCoveredExact(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema, Mode: ModeExact})
	narrow := subscription.MustParse(schema, "x in [50,60] && y in [50,60]")
	narrowID, err := d.Insert(narrow)
	if err != nil {
		t.Fatal(err)
	}
	wide := subscription.MustParse(schema, "x in [10,200] && y in [10,200]")
	id, found, _, err := d.FindCovered(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !found || id != narrowID {
		t.Fatalf("FindCovered = (%d,%v), want (%d,true)", id, found, narrowID)
	}
	// The narrow subscription covers nothing that is stored.
	if _, found, _, err := d.FindCovered(narrow.Clone()); err != nil {
		t.Fatal(err)
	} else if !found {
		t.Fatal("a subscription covers its stored twin")
	}
	disjoint := subscription.MustParse(schema, "x in [210,220]")
	if _, found, _, _ := d.FindCovered(disjoint); found {
		t.Fatal("disjoint subscription covers nothing")
	}
	// A removed subscription leaves the scan.
	if err := d.Remove(narrowID); err != nil {
		t.Fatal(err)
	}
	if _, found, _, _ := d.FindCovered(wide); found {
		t.Fatal("removed subscription still reported as covered")
	}
}

func TestFindCoveredAgreesWithOracle(t *testing.T) {
	// FindCovered scans in both modes, so both must agree with a
	// brute-force scan, and what they name must be genuinely covered.
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(41))
	exact := MustNew(Config{Schema: schema, Mode: ModeExact})
	approx := MustNew(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.3, MaxCubes: 20000})

	var stored []*subscription.Subscription
	randSub := func() *subscription.Subscription {
		s := subscription.New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(200))
			hi := lo + uint32(rng.Intn(56))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	for i := 0; i < 80; i++ {
		s := randSub()
		if _, err := exact.Insert(s); err != nil {
			t.Fatal(err)
		}
		if _, err := approx.Insert(s); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, s)
	}
	for trial := 0; trial < 120; trial++ {
		q := randSub()
		oracle := false
		for _, s := range stored {
			if q.Covers(s) {
				oracle = true
				break
			}
		}
		_, exactFound, _, err := exact.FindCovered(q)
		if err != nil {
			t.Fatal(err)
		}
		if exactFound != oracle {
			t.Fatalf("exact FindCovered=%v, oracle=%v for %v", exactFound, oracle, q)
		}
		id, approxFound, _, err := approx.FindCovered(q)
		if err != nil {
			t.Fatal(err)
		}
		if approxFound != oracle {
			t.Fatalf("approx FindCovered=%v, oracle=%v for %v", approxFound, oracle, q)
		}
		if approxFound {
			covered, ok := approx.Subscription(id)
			if !ok || !q.Covers(covered) {
				t.Fatalf("approx FindCovered returned a non-covered subscription")
			}
		}
	}
}

func TestFindCoveredModeOff(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema, Mode: ModeOff})
	if _, err := d.Insert(subscription.MustParse(schema, "x == 5")); err != nil {
		t.Fatal(err)
	}
	if _, found, _, _ := d.FindCovered(subscription.New(schema)); found {
		t.Fatal("ModeOff must not find covered subscriptions")
	}
}

// TestFindCoveredRepeatsSmallestID: with several held subscriptions
// covered by one query, every one of 50 repeats names the smallest id —
// an answer taken from map order would wander between them.
func TestFindCoveredRepeatsSmallestID(t *testing.T) {
	schema := testSchema(t)
	wide := subscription.MustParse(schema, "x in [10,200] && y in [10,200]")
	for _, cfg := range []Config{
		{Schema: schema, Mode: ModeExact},
		{Schema: schema, Mode: ModeApprox, Epsilon: 0.3},
	} {
		d := MustNew(cfg)
		if _, err := d.Insert(subscription.MustParse(schema, "x in [0,5]")); err != nil {
			t.Fatal(err) // not covered by wide, and the smallest id
		}
		var smallest uint64
		for i := uint32(0); i < 12; i++ {
			id, err := d.Insert(subscription.MustParse(schema, fmt.Sprintf("x in [%d,%d] && y in [50,60]", 20+i, 30+i)))
			if err != nil {
				t.Fatal(err)
			}
			if smallest == 0 {
				smallest = id
			}
		}
		for i := 0; i < 50; i++ {
			if id, found, _, err := d.FindCovered(wide); err != nil || !found || id != smallest {
				t.Fatalf("%v call %d: FindCovered = (%d,%v,%v), want (%d,true,nil)", cfg.Mode, i, id, found, err, smallest)
			}
		}
	}
}

func TestConcurrentDetectorAccess(t *testing.T) {
	// The detector promises goroutine safety; exercise it under -race.
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.3, MaxCubes: 2000})
	done := make(chan error, 4)
	worker := func(seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := subscription.New(schema)
			lo := uint32(rng.Intn(200))
			if err := s.SetRange("x", lo, lo+20); err != nil {
				done <- err
				return
			}
			id, _, _, err := d.Add(s)
			if err != nil {
				done <- err
				return
			}
			if _, _, _, err := d.FindCovered(s); err != nil {
				done <- err
				return
			}
			if i%3 == 0 {
				if err := d.Remove(id); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}
	for g := 0; g < 4; g++ {
		go worker(int64(g))
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() == 0 {
		t.Fatal("expected surviving subscriptions")
	}
}
