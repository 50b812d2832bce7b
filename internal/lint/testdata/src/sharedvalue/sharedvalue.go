// Package sharedvalue exercises the sharedvalue analyzer: items
// returned by the store's read APIs alias shared memory, and their
// Value bytes must be cloned before any byte-level mutation.
package sharedvalue

import (
	"sort"

	"tcache/internal/db"
)

func mutateIndex(d *db.DB) {
	it, _ := d.Get("k")
	it.Value[0] = 'x' // want `index assignment into shared copy-on-write value returned by DB.Get`
}

func mutateAppend(d *db.DB) []byte {
	it, _ := d.Get("k")
	v := it.Value
	return append(v, 'x') // want `append to shared copy-on-write value returned by DB.Get`
}

func mutateCopy(d *db.DB) {
	it, _ := d.Get("k")
	copy(it.Value, "yz") // want `copy into shared copy-on-write value returned by DB.Get`
}

func mutateSort(d *db.DB) {
	it, _ := d.Get("k")
	v := it.Value
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) // want `in-place sort of shared copy-on-write value returned by DB.Get`
}
