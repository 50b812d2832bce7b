package lint

// All is the full tcachelint suite in reporting order.
var All = []*Analyzer{
	Locks,
	CtxDiscipline,
	SharedValue,
	WireExhaustive,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}
