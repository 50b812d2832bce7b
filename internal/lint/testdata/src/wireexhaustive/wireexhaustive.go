// Package wireexhaustive exercises the wireexhaustive analyzer:
// //tcache:exhaustive switches must name every constant of the tag's
// type (a default arm is no excuse).
package wireexhaustive

type Op string

const (
	OpA Op = "a"
	OpB Op = "b"
	OpC Op = "c"
)

func missing(op Op) int {
	//tcache:exhaustive
	switch op { // want `//tcache:exhaustive switch on Op is missing case\(s\) for: OpC`
	case OpA:
		return 1
	case OpB:
		return 2
	default:
		return 0
	}
}
