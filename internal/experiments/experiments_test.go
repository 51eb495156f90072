package experiments

import (
	"io"
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("expected 15 experiments, got %d", len(all))
	}
	for i, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
		if i > 0 && idOrder(all[i-1].ID) >= idOrder(e.ID) {
			t.Fatalf("experiments out of order at %s", e.ID)
		}
	}
	if _, ok := ByID("E1"); !ok {
		t.Fatal("ByID(E1) missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should miss")
	}
}

// TestAllExperimentsRunQuick executes every experiment with quick
// parameters; each must complete without error and produce a table.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var sb strings.Builder
			if err := e.Run(&sb, true); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := sb.String()
			if !strings.Contains(out, e.ID+":") {
				t.Errorf("%s output missing banner", e.ID)
			}
			if !strings.Contains(out, "---") {
				t.Errorf("%s output missing a table", e.ID)
			}
		})
	}
}

// TestE14WalkIsExact holds E14's quick run to what its footer says: the
// walk answers every query itself, finds every planted cover, and so
// recalls at least as much as the ε-search on every row.
func TestE14WalkIsExact(t *testing.T) {
	_, rows, err := e14Rows(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("E14 measured no rows")
	}
	for _, r := range rows {
		if r.walkRecall != 1 || r.byWalk != 1 || r.walkRecall < r.cubesRecall {
			t.Errorf("slack %s eps %g: walk recall %g, answered by walk %g, cubes recall %g",
				r.slack, r.eps, r.walkRecall, r.byWalk, r.cubesRecall)
		}
	}
}

// TestE1ExactFigures pins the exact Figure 2 numbers through the
// experiment path.
func TestE1ExactFigures(t *testing.T) {
	var sb strings.Builder
	e, _ := ByID("E1")
	if err := e.Run(&sb, false); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"514", "385", "0.992"} {
		if !strings.Contains(out, want) {
			t.Errorf("E1 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentErrorsPropagate(t *testing.T) {
	// Writing to a failing writer must not panic; experiments report
	// errors through Run's return where they check them.
	e, _ := ByID("E1")
	if err := e.Run(io.Discard, true); err != nil {
		t.Fatal(err)
	}
}
