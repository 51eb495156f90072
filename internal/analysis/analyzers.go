package analysis

// All returns the full analyzer suite in the order sfclint runs it.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathClock,
		WALOrder,
		WireErrs,
	}
}
