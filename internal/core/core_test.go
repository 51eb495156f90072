package core

import (
	"math/rand"
	"testing"

	"sfccover/internal/dominance"
	"sfccover/internal/subscription"
)

func testSchema(t *testing.T) *subscription.Schema {
	t.Helper()
	return subscription.MustSchema(8, "x", "y")
}

func TestNewValidation(t *testing.T) {
	schema := testSchema(t)
	if _, err := New(Config{}); err == nil {
		t.Error("missing schema must fail")
	}
	if _, err := New(Config{Schema: schema, Mode: ModeApprox}); err == nil {
		t.Error("approx without epsilon must fail")
	}
	if _, err := New(Config{Schema: schema, Mode: ModeApprox, Epsilon: 1.5}); err == nil {
		t.Error("epsilon out of range must fail")
	}
	if _, err := New(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.1, Strategy: StrategyLinear}); err == nil {
		t.Error("approx with linear strategy must fail")
	}
	if _, err := New(Config{Schema: schema, Strategy: "quadtree"}); err == nil {
		t.Error("unknown strategy must fail")
	}
	if _, err := New(Config{Schema: schema, Strategy: "kdtree"}); err == nil {
		t.Error("the k-d tree is an experiment baseline, not a strategy")
	}
	for _, strat := range []Strategy{StrategySFC, StrategyLinear} {
		if _, err := New(Config{Schema: schema, Strategy: strat}); err != nil {
			t.Errorf("strategy %q: %v", strat, err)
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeOff.String() != "off" || ModeExact.String() != "exact" || ModeApprox.String() != "approx" {
		t.Error("mode strings wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Error("unknown mode string wrong")
	}
}

func TestExactDetectsCovering(t *testing.T) {
	schema := testSchema(t)
	for _, strat := range []Strategy{StrategySFC, StrategyLinear} {
		d := MustNew(Config{Schema: schema, Mode: ModeExact, Strategy: strat})
		wide := subscription.MustParse(schema, "x in [10,200] && y in [20,220]")
		wideID, covered, _, err := d.Add(wide)
		if err != nil {
			t.Fatal(err)
		}
		if covered {
			t.Fatalf("%s: first subscription cannot be covered", strat)
		}
		narrow := subscription.MustParse(schema, "x in [50,150] && y in [30,40]")
		_, covered, coveredBy, err := d.Add(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if !covered || coveredBy != wideID {
			t.Fatalf("%s: narrow should be covered by wide (covered=%v by=%d)", strat, covered, coveredBy)
		}
		other := subscription.MustParse(schema, "x in [0,9]")
		if _, covered, _, _ := d.Add(other); covered {
			t.Fatalf("%s: disjoint subscription wrongly covered", strat)
		}
		if d.Len() != 3 {
			t.Fatalf("%s: Len=%d", strat, d.Len())
		}
	}
}

func TestModeOffNeverFinds(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema, Mode: ModeOff})
	wide := subscription.New(schema) // covers everything
	if _, err := d.Insert(wide); err != nil {
		t.Fatal(err)
	}
	narrow := subscription.MustParse(schema, "x == 5")
	if _, found, _, _ := d.FindCover(narrow); found {
		t.Error("ModeOff must never find covers")
	}
	if d.Totals().Queries != 0 {
		t.Error("ModeOff queries should not count")
	}
}

func TestApproxNeverFalselyClaims(t *testing.T) {
	// Approximate detection may miss covers but must never claim one that
	// is not real.
	schema := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	d := MustNew(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.3, MaxCubes: 20000})
	oracle := MustNew(Config{Schema: schema, Mode: ModeExact, Strategy: StrategyLinear})

	randSub := func() *subscription.Subscription {
		s := subscription.New(schema)
		for _, attr := range schema.Attrs() {
			lo := uint32(rng.Intn(256))
			hi := lo + uint32(rng.Intn(int(256-lo)))
			if err := s.SetRange(attr, lo, hi); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}

	misses := 0
	for i := 0; i < 80; i++ {
		s := randSub()
		id, approxFound, _, err := d.FindCover(s)
		if err != nil {
			t.Fatal(err)
		}
		_, exactFound, _, err := oracle.FindCover(s)
		if err != nil {
			t.Fatal(err)
		}
		if approxFound {
			if !exactFound {
				t.Fatal("approx found a cover the exact oracle denies")
			}
			cover, ok := d.Subscription(id)
			if !ok || !cover.Covers(s) {
				t.Fatalf("claimed cover %d does not cover %v", id, s)
			}
		} else if exactFound {
			misses++ // allowed: approximation error
		}
		if _, err := d.Insert(s); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Insert(s); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("approx missed %d covers out of 80 adds", misses)
}

func TestApproxRecallIsHigh(t *testing.T) {
	// With planted covers whose slack is generous relative to the
	// truncation cut (the paper's "well distributed" regime), approximate
	// detection should find the overwhelming majority. A single attribute
	// (d = 2 dominance dims) keeps each query to a few hundred probes.
	schema := subscription.MustSchema(10, "price")
	rng := rand.New(rand.NewSource(13))
	d := MustNew(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.1})

	type iv struct{ lo, hi uint32 }
	var children []iv
	for i := 0; i < 150; i++ {
		lo := uint32(300 + rng.Intn(400))
		child := iv{lo, lo + 50 + uint32(rng.Intn(100))}
		children = append(children, child)
		// Parent extends the child by a generous uniform slack per side.
		pLo := child.lo - uint32(50+rng.Intn(150))
		pHi := child.hi + uint32(50+rng.Intn(150))
		if pHi > schema.MaxValue() {
			pHi = schema.MaxValue()
		}
		parent := subscription.New(schema)
		if err := parent.SetRange("price", pLo, pHi); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Insert(parent); err != nil {
			t.Fatal(err)
		}
	}
	found := 0
	for _, c := range children {
		q := subscription.New(schema)
		if err := q.SetRange("price", c.lo, c.hi); err != nil {
			t.Fatal(err)
		}
		_, ok, _, err := d.FindCover(q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			found++
		}
	}
	recall := float64(found) / float64(len(children))
	if recall < 0.85 {
		t.Fatalf("recall %v too low for eps=0.1 with generous-slack covers", recall)
	}
	t.Logf("recall = %.3f", recall)
}

func TestRemoveRestoresNonCovered(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema, Mode: ModeExact})
	wide := subscription.MustParse(schema, "x in [0,200]")
	wideID, err := d.Insert(wide)
	if err != nil {
		t.Fatal(err)
	}
	narrow := subscription.MustParse(schema, "x in [50,60]")
	if _, found, _, _ := d.FindCover(narrow); !found {
		t.Fatal("cover should be found before removal")
	}
	if err := d.Remove(wideID); err != nil {
		t.Fatal(err)
	}
	if _, found, _, _ := d.FindCover(narrow); found {
		t.Fatal("cover should be gone after removal")
	}
	if err := d.Remove(wideID); err == nil {
		t.Fatal("double remove must fail")
	}
	if d.Len() != 0 {
		t.Fatalf("Len=%d after removal", d.Len())
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	d := MustNew(Config{Schema: testSchema(t)})
	other := subscription.MustSchema(8, "x", "y")
	s := subscription.New(other)
	if _, err := d.Insert(s); err == nil {
		t.Error("insert with foreign schema must fail")
	}
	if _, _, _, err := d.FindCover(s); err == nil {
		t.Error("query with foreign schema must fail")
	}
}

func TestInsertIsolatesCallerMutation(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema})
	s := subscription.MustParse(schema, "x in [10,20]")
	id, err := d.Insert(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRange("x", 0, 255); err != nil { // mutate caller's copy
		t.Fatal(err)
	}
	held, ok := d.Subscription(id)
	if !ok || held.Range(0).Lo != 10 || held.Range(0).Hi != 20 {
		t.Error("detector must hold an independent copy")
	}
}

func TestTotalsAccounting(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema, Mode: ModeApprox, Epsilon: 0.3})
	s := subscription.MustParse(schema, "x in [5,10]")
	if _, _, _, err := d.FindCover(s); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(subscription.New(schema)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.FindCover(s); err != nil {
		t.Fatal(err)
	}
	tot := d.Totals()
	if tot.Queries != 2 {
		t.Errorf("Queries=%d, want 2", tot.Queries)
	}
	if tot.Hits != 1 {
		t.Errorf("Hits=%d, want 1 (second query hits the universal sub)", tot.Hits)
	}
	if tot.RunsProbed == 0 {
		t.Error("descent counter should be positive")
	}
	if tot.CubesGenerated != 0 || tot.PathQueries[dominance.PathWalk] != 2 {
		t.Errorf("both queries should be walk-answered without cubes: cubes=%d paths=%v", tot.CubesGenerated, tot.PathQueries)
	}
}

func TestSubscriptionLookup(t *testing.T) {
	schema := testSchema(t)
	d := MustNew(Config{Schema: schema})
	if _, ok := d.Subscription(99); ok {
		t.Error("lookup of unknown id should miss")
	}
	s := subscription.MustParse(schema, "y == 7")
	id, _ := d.Insert(s)
	got, ok := d.Subscription(id)
	if !ok || !got.Equal(s) {
		t.Error("lookup returned wrong subscription")
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
			if _, _, _, err := d.FindCover(s); err != nil {
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
