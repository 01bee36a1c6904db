package main

import (
	"sort"
	"time"
)

// sliceLen is the length of the time slices a measured window is cut into.
// Rates (throughput, CPU per operation, streamed tuples per second) are
// computed per slice and reported as the median over the slices: a slice
// disturbed by a neighbour on the machine moves one value of many, not the
// result. Latency percentiles are taken over all operations of the window
// together: a tail is made of the rare slow operations — a compaction stall,
// a long collection — and a median over slices would hide exactly those.
// Only the median latency is taken lane by lane and averaged: the committing
// worker of versioned-rw and the other one have different typical reads, and
// the median of their union sits in the gap between the two.
const sliceLen = 2 * time.Second

// windowStats are the metrics of one measured window.
type windowStats struct {
	opsPerS     float64
	p50MS       float64
	p99MS       float64
	cpuMSPerOp  float64 // 0 without CPU samples
	ttftP50MS   float64 // streamed ops
	tuplesPerS  float64 // streamed ops: tuples per second of stream wall time
	commitP50MS float64 // commit ops
	ops         int     // ops inside the slices
	streams     int
	tuples      int
	commits     int
	slices      int
	beyondP99   int // latency samples beyond p99
	// sliceOpsPerS is every slice's throughput, lane after lane: kept in
	// the result file, where it shows how steady the machine was.
	sliceOpsPerS []float64
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// lane is one series of operations with the bounds that cut it into
// slices: all workers' operations with common time bounds for a served
// window, one worker's operations with its own cycle bounds for
// versioned-rw.
type lane struct {
	recs   []opRec
	bounds []time.Duration
	cpu    []float64 // optional: the served process's CPU seconds at each bound
}

// summarize reduces the operations completed inside the slices of every
// lane: the rates to the median over a lane's slices, then over the lanes —
// throughput adds up (the lanes run side by side), the rest is averaged —
// and the latencies to percentiles (see sliceLen).
func summarize(lanes ...lane) windowStats {
	var st windowStats
	var lat, first, commits []float64
	n := float64(len(lanes))
	for _, ln := range lanes {
		recs := ln.recs
		sort.Slice(recs, func(i, j int) bool { return recs[i].end < recs[j].end })
		var opsPerS, cpuPerOp, tuplesPerS []float64
		laneStart := len(lat)
		for k := 0; k+1 < len(ln.bounds); k++ {
			lo := sort.Search(len(recs), func(i int) bool { return recs[i].end > ln.bounds[k] })
			hi := sort.Search(len(recs), func(i int) bool { return recs[i].end > ln.bounds[k+1] })
			in := recs[lo:hi]
			if len(in) == 0 {
				continue
			}
			st.slices++
			st.ops += len(in)
			streamSecs, tuples := 0.0, 0
			for _, r := range in {
				if r.aside {
					continue
				}
				lat = append(lat, ms(r.lat))
				if r.stream {
					first = append(first, ms(r.ttft))
					streamSecs += r.lat.Seconds()
					tuples += r.tuples
				}
				if r.commit {
					commits = append(commits, ms(r.lat))
				}
			}
			opsPerS = append(opsPerS, float64(len(in))/(ln.bounds[k+1]-ln.bounds[k]).Seconds())
			if len(ln.cpu) == len(ln.bounds) {
				cpuPerOp = append(cpuPerOp, (ln.cpu[k+1]-ln.cpu[k])*1000/float64(len(in)))
			}
			if streamSecs > 0 {
				tuplesPerS = append(tuplesPerS, float64(tuples)/streamSecs)
				st.tuples += tuples
			}
		}
		st.opsPerS += median(opsPerS)
		st.sliceOpsPerS = append(st.sliceOpsPerS, opsPerS...)
		st.cpuMSPerOp += median(cpuPerOp) / n
		st.tuplesPerS += median(tuplesPerS) / n
		st.p50MS += percentile(lat[laneStart:], 50) / n
	}
	st.p99MS = percentile(lat, 99)
	st.ttftP50MS, st.streams = percentile(first, 50), len(first)
	st.commitP50MS, st.commits = median(commits), len(commits)
	st.beyondP99 = len(lat) / 100
	return st
}
