package lint

// All returns the repo's analyzer suite in reporting order. Each entry
// is the machine-checked form of one documented invariant; see each
// analyzer's Section for the DESIGN.md contract it enforces.
func All() []*Analyzer {
	return []*Analyzer{FrozenMsg, Determinism, AllocFree, GoroutineLife}
}
