package analysis_test

import (
	"testing"

	"sfccover/internal/analysis"
	"sfccover/internal/analysis/analysistest"
)

func TestHotPathClock(t *testing.T) {
	analysistest.Run(t, analysis.HotPathClock, "hotpathclock")
}

func TestWALOrder(t *testing.T) {
	analysistest.Run(t, analysis.WALOrder, "walorder")
}

func TestWireErrs(t *testing.T) {
	analysistest.Run(t, analysis.WireErrs, "wireerrs")
}

func TestDirectiveParsing(t *testing.T) {
	d, ok := analysis.ParseDirective("//sfc:walok replay applies records already on disk")
	if !ok || d.Name != "walok" || d.Args != "replay applies records already on disk" {
		t.Fatalf("ParseDirective = %+v, %v", d, ok)
	}
	if _, ok := analysis.ParseDirective("// ordinary comment"); ok {
		t.Fatal("ordinary comment parsed as directive")
	}
	if _, ok := analysis.ParseDirective("//sfc:"); ok {
		t.Fatal("empty directive name parsed as directive")
	}
}
