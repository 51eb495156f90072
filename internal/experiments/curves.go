package experiments

import "sfccover/internal/sfc"

// NewCurve builds a curve by name over d dimensions of k bits: "z" (or
// "morton"), the one curve the index runs on, or one of the curves the
// experiments compare it with — "hilbert", "gray" or "onion".
func NewCurve(name string, d, k int) (sfc.Curve, error) {
	cfg := sfc.Config{Dims: d, Bits: k}
	switch name {
	case "hilbert":
		return curveOrErr(NewHilbert(cfg))
	case "gray":
		return curveOrErr(NewGray(cfg))
	case "onion":
		return curveOrErr(NewOnion(cfg))
	}
	return curveOrErr(sfc.New(name, cfg))
}

// curveOrErr returns a constructor's curve as an interface, nil on error
// (never an interface holding a nil pointer).
func curveOrErr[C sfc.Curve](c C, err error) (sfc.Curve, error) {
	if err != nil {
		return nil, err
	}
	return c, nil
}
