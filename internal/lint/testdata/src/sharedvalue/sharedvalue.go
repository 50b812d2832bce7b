// Package sharedvalue exercises the sharedvalue analyzer: items the
// store's read APIs return alias shared memory, cloned before mutation.
package sharedvalue

import (
	"context"
	"sort"

	"tcache/internal/db"
	"tcache/internal/kv"
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

func mutateCopy(ctx context.Context, d *db.DB) {
	it, _, _ := d.ReadItem(ctx, "k")
	copy(it.Value, "yz") // want `copy into shared copy-on-write value returned by DB.ReadItem`
}

func mutateSort(d *db.DB) {
	it, _ := d.Get("k")
	v := it.Value
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) // want `in-place sort of shared copy-on-write value returned by DB.Get`
}

func mutateCommitDeps(ctx context.Context, d *db.DB) kv.DepList {
	res, _ := d.CommitUpdate(ctx, nil, nil)
	return append(res.Deps[0], kv.DepEntry{}) // want `append to shared copy-on-write value returned by DB.CommitUpdate`
}
