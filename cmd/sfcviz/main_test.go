package main

import "testing"

func TestRunModes(t *testing.T) {
	if err := run("z", 3, "", true); err != nil {
		t.Errorf("figure2: %v", err)
	}
	for _, curve := range []string{"z", "hilbert", "gray", "onion"} {
		if err := run(curve, 3, "", false); err != nil {
			t.Errorf("order %s: %v", curve, err)
		}
	}
	if err := run("z", 4, "0,0,1,4", false); err != nil {
		t.Errorf("rect: %v", err)
	}
	if err := run("hilbert", 4, "0,0,1,4", false); err != nil {
		t.Errorf("hilbert rect: %v", err)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	if err := run("peano", 3, "", false); err == nil {
		t.Error("unknown curve must fail")
	}
	if err := run("z", 9, "", false); err == nil {
		t.Error("k too large for drawing must fail")
	}
	if err := run("z", 0, "", false); err == nil {
		t.Error("k=0 must fail")
	}
	bad := []string{"1,2,3", "a,b,c,d", "5,5,1,1", "0,0,99,99"}
	for _, rect := range bad {
		if err := run("z", 4, rect, false); err == nil {
			t.Errorf("rect %q must fail", rect)
		}
	}
}
