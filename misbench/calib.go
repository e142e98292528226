package main

import (
	"math"
	"sort"
)

// opSample is one timed op with the kernel runs that bracket it.
type opSample struct {
	wallNS  int64 // the op's wall time
	kBefore int64 // kernel run just before the op (or its block)
	kAfter  int64 // kernel run just after the op (or its block)
}

// scale returns the factor that converts this sample's wall time to
// reference time: P_ref / P_adj, with P_adj the mean of the two kernel
// runs around it.
func (s opSample) scale() float64 {
	return refKernelNS / (float64(s.kBefore+s.kAfter) / 2)
}

// refNS is the op's calibrated time in reference nanoseconds.
func (s opSample) refNS() float64 { return float64(s.wallNS) * s.scale() }

// runRefNS converts a raw time to reference time by the median of all
// kernel runs in the run (sorted in place).
func runRefNS(rawNS float64, kernelNS []float64) float64 {
	return rawNS * refKernelNS / median(kernelNS)
}

// latency summarizes a set of op samples.
type latency struct {
	ops        int
	opsPerRefS float64   // ops per calibrated second of op time
	p50RefMS   float64   // median calibrated op latency
	tailRefMS  float64   // calibrated latency at tailPct
	tailPct    float64   // percentile of tailRefMS
	rawP50MS   float64   // median uncalibrated op latency
	kernelMS   float64   // median kernel run, uncalibrated
	sorted     []float64 // calibrated op times in ns, ascending
}

// quantile returns the calibrated latency in ms at fraction q of the
// sorted ops.
func (l latency) quantile(q float64) float64 {
	if len(l.sorted) == 0 {
		return math.NaN()
	}
	return l.sorted[int(q*float64(len(l.sorted)-1))] / 1e6
}

// The tail percentile must leave tailBeyond ops above it, and is capped
// at tailCap: beyond p99 of tens of thousands of dynamic windows it
// measures the host's rare stalls, not the program (see doc.go).
const (
	tailBeyond = 10
	tailCap    = 0.99
)

func summarize(samples []opSample) latency {
	n := len(samples)
	if n == 0 {
		return latency{}
	}
	ref := make([]float64, n)
	raw := make([]float64, n)
	kern := make([]float64, 0, 2*n)
	var total float64
	for i, s := range samples {
		ref[i] = s.refNS()
		raw[i] = float64(s.wallNS)
		kern = append(kern, float64(s.kBefore), float64(s.kAfter))
		total += ref[i]
	}
	sort.Float64s(ref)
	// The tail is the highest percentile, capped at tailCap, that leaves
	// at least tailBeyond ops above it. Runs too short for that to sit
	// above the median report their slowest op.
	ti := min(n-1-tailBeyond, int(math.Ceil(tailCap*float64(n)))-1)
	if ti < n/2 {
		ti = n - 1
	}
	return latency{
		ops:        n,
		opsPerRefS: float64(n) / (total / 1e9),
		p50RefMS:   median(ref) / 1e6,
		tailRefMS:  ref[ti] / 1e6,
		tailPct:    100 * float64(ti+1) / float64(n),
		rawP50MS:   median(raw) / 1e6,
		kernelMS:   median(kern) / 1e6,
		sorted:     ref,
	}
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
