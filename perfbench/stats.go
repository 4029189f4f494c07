package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"streamop/internal/tuple"
	"streamop/internal/value"
)

// clockBase anchors now(): every timestamp the benchmark takes is
// monotonic nanoseconds since process start, so values recorded on
// different goroutines compare directly.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// cpuNS returns the process's cumulative user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e9 + (ru.Utime.Usec+ru.Stime.Usec)*1e3
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// summary is a metric's median and quartiles over the samples one run
// took of it.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), P25: quantile(s, 0.25), P75: quantile(s, 0.75), N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// nsToFloats converts nanosecond samples to float64 in the given unit.
func nsToFloats(ns []int64, unit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / unit
	}
	return out
}

// Row digests: FNV-1a over each value's kind, payload word and string,
// chained across a query's rows in delivery order, so equal digests mean
// the same rows in the same order with bit-identical values.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix64(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}

func digestRow(h uint64, row tuple.Tuple) uint64 {
	h = mix64(h, uint64(len(row)))
	for _, v := range row {
		h = mix64(h, uint64(v.Kind()))
		h = mix64(h, v.Bits())
		if v.Kind() == value.String {
			for _, c := range []byte(v.Str()) {
				h ^= uint64(c)
				h *= fnvPrime
			}
		}
	}
	return h
}
