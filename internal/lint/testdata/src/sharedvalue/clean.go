package sharedvalue

import "tcache/internal/db"

func cloneFirst(d *db.DB) {
	it, _ := d.Get("k")
	v := it.Value.Clone()
	v[0] = 'x'
}

// reassigned replaces the whole slice before mutating; the taint does
// not survive the reassignment.
func reassigned(d *db.DB) {
	it, _ := d.Get("k")
	v := it.Value
	v = []byte("fresh")
	v[0] = 'x'
	_ = v
}

// readOnly never mutates the shared bytes.
func readOnly(d *db.DB) int {
	it, _ := d.Get("k")
	n := 0
	for _, b := range it.Value {
		n += int(b)
	}
	return n
}
