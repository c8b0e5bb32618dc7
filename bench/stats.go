package main

import (
	"slices"
	"time"
)

// percentile returns the p-quantile (0..1) of sorted by nearest rank on
// n-1, the same rule the repo's netload experiment uses. Empty input
// reads 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// median returns the middle value of vs (the mean of the two middle ones
// for an even count) without reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sliceRecorder sorts one connection's latency samples into the nSlices
// equal time slices of a phase, by the time each reply was read. A noisy
// neighbour's stall then poisons one slice's statistic, not the run's.
type sliceRecorder struct {
	start  time.Time
	length time.Duration
	lat    [nSlices][]float64 // microseconds
}

func newSliceRecorder(start time.Time, phase time.Duration) *sliceRecorder {
	return &sliceRecorder{start: start, length: phase / nSlices}
}

func (r *sliceRecorder) add(latency time.Duration, at time.Time) {
	// A reply read after the phase ended was still checked, but belongs
	// to no slice.
	if i := int(at.Sub(r.start) / r.length); i >= 0 && i < nSlices {
		r.lat[i] = append(r.lat[i], float64(latency.Nanoseconds())/1e3)
	}
}

// phaseStats is the slice-median summary of one phase over all
// connections.
type phaseStats struct {
	rps, p50, p95, p99 float64
	samples            int                 // all slices
	minSlice           int                 // fewest samples in one slice: what the p99 rests on
	within             int                 // samples no slower than the latency limit
	slices             [nSlices][4]float64 // per slice: rps, p50, p95, p99
}

// summarize merges the connections' recorders slice by slice, takes each
// slice's throughput, median, p95 and p99, and reports the median over
// slices.
// within counts the samples no slower than sloUs.
func summarize(recs []*sliceRecorder, sloUs float64) phaseStats {
	var rps, p50, p95, p99 []float64
	st := phaseStats{minSlice: -1}
	for i := 0; i < nSlices; i++ {
		var all []float64
		for _, r := range recs {
			all = append(all, r.lat[i]...)
		}
		slices.Sort(all)
		rps = append(rps, float64(len(all))/recs[0].length.Seconds())
		p50 = append(p50, percentile(all, 0.50))
		p95 = append(p95, percentile(all, 0.95))
		p99 = append(p99, percentile(all, 0.99))
		st.slices[i] = [4]float64{rps[i], p50[i], p95[i], p99[i]}
		st.samples += len(all)
		if st.minSlice < 0 || len(all) < st.minSlice {
			st.minSlice = len(all)
		}
		for _, l := range all {
			if l <= sloUs {
				st.within++
			}
		}
	}
	st.rps, st.p50, st.p95, st.p99 = median(rps), median(p50), median(p95), median(p99)
	return st
}
