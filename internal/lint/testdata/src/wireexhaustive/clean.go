package wireexhaustive

func full(op Op) int {
	//tcache:exhaustive
	switch op {
	case OpA:
		return 1
	case OpB:
		return 2
	case OpC:
		return 3
	default:
		return 0
	}
}

// unannotated switches may be partial.
func partial(op Op) bool {
	switch op {
	case OpA:
		return true
	}
	return false
}
