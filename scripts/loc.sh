#!/usr/bin/env bash
# Non-test Go lines per package — the size number ROADMAP tracks next to
# ns/op (bench/ is the measuring harness, not the measured system, and
# is excluded, as are dot-directories such as .bench_build/). Prints one "lines  package" row per directory, largest
# first, then the total, and exits 1 when the total exceeds max, the
# size goal ROADMAP.md tracks.
set -euo pipefail
max=23000
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -print0 |
  xargs -0 wc -l |
  awk -v max="$max" '$2 != "total" {
         dir = $2; sub(/\/[^\/]*$/, "", dir); if (dir == ".") dir = "./"
         lines[dir] += $1; total += $1
       }
       END {
         for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k1,1nr -k2"
         close("sort -k1,1nr -k2")
         printf "%7d  total\n", total
         if (total > max) {
           printf("non-test lines %d exceed the %d goal\n", total, max) > "/dev/stderr"
           exit 1
         }
       }'
