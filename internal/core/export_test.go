package core

// HoldsWords reports whether d's held set keeps one-word keys, for the
// external tests that pin which form a schema selects.
func HoldsWords(d *Detector) bool { return d.held.Words() }
