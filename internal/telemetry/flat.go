package telemetry

import (
	"strconv"
	"strings"
)

// Flat wire encoding: a whole registry snapshot folded into the
// `Stats map[string]uint64` that OpStats carries — the one encoding
// both servers answer in.
//
// The key grammar reserves '|', which ValidMetricName excludes:
//
//	name            counter
//	name|g          gauge
//	name|h<i>       histogram bucket i count (zero buckets omitted)
//	name|hsum       histogram sum of samples
//
// Summing two flat maps key-by-key — which is exactly what the
// cluster-wide Stats aggregate has always done — remains meaningful:
// counters and histogram buckets add exactly, gauges add into a
// fleet total (documented as such in the README).

const (
	flatSep       = "|"
	flatGauge     = "g"
	flatHist      = "h"
	flatHistSum   = "hsum"
	flatHistBytes = len(flatSep) + len(flatHist)
)

// Flatten encodes a snapshot into the flat OpStats map. Zero-count
// histogram buckets are omitted to keep frames small; the sum key is
// always present for a registered histogram so decoders can tell "empty
// histogram" from "no histogram".
func Flatten(s Snapshot) map[string]uint64 {
	out := make(map[string]uint64, len(s.Counters)+len(s.Gauges)+8*len(s.Histograms))
	for name, v := range s.Counters {
		out[name] = v
	}
	for name, v := range s.Gauges {
		out[name+flatSep+flatGauge] = v
	}
	for name, h := range s.Histograms {
		for i, c := range h.Counts {
			if c != 0 {
				out[name+flatSep+flatHist+strconv.Itoa(i)] = c
			}
		}
		out[name+flatSep+flatHistSum] = h.Sum
	}
	return out
}

// ParseFlat decodes a flat OpStats map back into a snapshot. Plain
// keys — including everything a pre-telemetry server sends — decode as
// counters; malformed suffixes are preserved as counters rather than
// dropped, so a newer peer never hides data from an older tool.
func ParseFlat(flat map[string]uint64) Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]uint64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for key, v := range flat {
		sep := strings.LastIndex(key, flatSep)
		if sep <= 0 || sep == len(key)-1 {
			s.Counters[key] = v
			continue
		}
		name, suffix := key[:sep], key[sep+1:]
		switch {
		case suffix == flatGauge:
			s.Gauges[name] = v
		case suffix == flatHistSum:
			h := s.Histograms[name]
			h.Sum = v
			s.Histograms[name] = h
		case strings.HasPrefix(suffix, flatHist):
			i, err := strconv.Atoi(suffix[len(flatHist):])
			if err != nil || i < 0 || i >= NumBuckets {
				s.Counters[key] = v
				continue
			}
			h := s.Histograms[name]
			h.Counts[i] = v
			s.Histograms[name] = h
		default:
			s.Counters[key] = v
		}
	}
	return s
}
