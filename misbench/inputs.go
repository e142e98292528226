package main

import (
	"math"

	"github.com/energymis/energymis"
)

// The benchmark owns its input generators, so a change to the program's
// own generators cannot change what the benchmark measures.

// splitmix is a SplitMix64 stream.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// derive returns an independent seed for stream `kind`, item i, of the
// workload seed.
func derive(seed uint64, kind, i uint64) uint64 {
	s := splitmix(seed ^ kind*0xd1b54a32d192ed03 ^ i*0x8cb92ba72f3d8dd7)
	return s.next()
}

// Seed streams.
const (
	seedGraph = iota + 1
	seedOp
	seedSetup
	seedStream
	seedRepair
)

// gnpEdges samples G(n, p) with p = avgDeg/(n-1) by geometric skipping
// over the node pairs (Batagelj–Brandes), in O(n + m).
func gnpEdges(n int, avgDeg float64, seed uint64) [][2]int {
	p := avgDeg / float64(n-1)
	r := splitmix(seed)
	logq := math.Log1p(-p)
	edges := make([][2]int, 0, int(float64(n)*avgDeg/2*1.05))
	v, w := 1, -1
	for v < n {
		w += 1 + int(math.Log1p(-r.float())/logq)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			edges = append(edges, [2]int{w, v})
		}
	}
	return edges
}

// churnCycle returns a stationary edge-churn stream on the graph given by
// edges: half windows*window toggles, each deleting a uniform present edge
// or inserting a uniform absent pair with equal odds, followed by their
// exact inverse (reversed, each op undone). Applying the cycle returns
// the topology to its start, so it can be replayed for as long as a run
// lasts while density and memory stay flat.
func churnCycle(n int, edges [][2]int, windows, window int, seed uint64) []energymis.Update {
	half := windows / 2 * window
	r := splitmix(seed)
	key := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(v)
	}
	live := make([]uint64, 0, len(edges)+half)
	pos := make(map[uint64]int, len(edges)+half)
	for _, e := range edges {
		k := key(e[0], e[1])
		pos[k] = len(live)
		live = append(live, k)
	}
	out := make([]energymis.Update, 0, 2*half)
	for len(out) < half {
		if r.next()&1 == 0 && len(live) > 0 {
			i := r.intn(len(live))
			k := live[i]
			last := live[len(live)-1]
			live[i] = last
			pos[last] = i
			live = live[:len(live)-1]
			delete(pos, k)
			out = append(out, energymis.DelEdge(int(k>>32), int(uint32(k))))
			continue
		}
		u, v := r.intn(n), r.intn(n-1)
		if v >= u {
			v++
		}
		k := key(u, v)
		if _, ok := pos[k]; ok {
			continue
		}
		pos[k] = len(live)
		live = append(live, k)
		out = append(out, energymis.InsEdge(u, v))
	}
	for i := half - 1; i >= 0; i-- {
		up := out[i]
		if up.Op == energymis.OpInsertEdge {
			out = append(out, energymis.DelEdge(up.U, up.V))
		} else {
			out = append(out, energymis.InsEdge(up.U, up.V))
		}
	}
	return out
}
