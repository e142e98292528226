package main

import "time"

// The reference kernel is frozen: every calibrated number the benchmark
// has ever reported is a ratio against it, so changing its graph, its
// sweeps or refKernelNS re-bases them all.
const (
	kernelLogN   = 15 // 2^15 nodes
	kernelDeg    = 8  // out-arcs per node
	kernelSweeps = 3  // BFS sweeps per kernel run
	kernelSeed   = 0x2545F4914F6CDD1D

	// refKernelNS is P_ref: the median time of one kernel run on the
	// reference host (2-vCPU x86-64 VM, Go 1.24). A calibrated time is
	// wall × refKernelNS / P_adj, so "ref-ms" reads as milliseconds on
	// that host at its typical speed.
	refKernelNS = 3.0e6
)

// refKernel runs BFS sweeps over a fixed synthetic CSR graph. It is
// single-threaded, allocates nothing after construction, and touches a
// working set (≈1.3 MB) of the same kind as the simulator's CSR scans,
// so its time tracks the host's current speed for that kind of work.
type refKernel struct {
	off   []int32
	adj   []int32
	dist  []int32
	queue []int32
	sink  int
}

func newRefKernel() *refKernel {
	n := 1 << kernelLogN
	k := &refKernel{
		off:   make([]int32, n+1),
		adj:   make([]int32, n*kernelDeg),
		dist:  make([]int32, n),
		queue: make([]int32, 0, n),
	}
	x := uint64(kernelSeed)
	for v := 0; v < n; v++ {
		k.off[v+1] = int32((v + 1) * kernelDeg)
		for j := 0; j < kernelDeg; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k.adj[v*kernelDeg+j] = int32(x & uint64(n-1))
		}
	}
	return k
}

// sweep runs one BFS from src and returns the number of nodes reached.
func (k *refKernel) sweep(src int32) int {
	for i := range k.dist {
		k.dist[i] = -1
	}
	k.dist[src] = 0
	q := append(k.queue[:0], src)
	for h := 0; h < len(q); h++ {
		v := q[h]
		d := k.dist[v] + 1
		for _, u := range k.adj[k.off[v]:k.off[v+1]] {
			if k.dist[u] < 0 {
				k.dist[u] = d
				q = append(q, u)
			}
		}
	}
	return len(q)
}

// run executes the kernel's fixed sweeps and returns the nodes reached.
func (k *refKernel) run() int {
	n := int32(1 << kernelLogN)
	reached := 0
	for s := int32(0); s < kernelSweeps; s++ {
		reached += k.sweep(s * 7919 % n)
	}
	return reached
}

// timed runs the kernel once and returns its wall time in ns.
func (k *refKernel) timed() int64 {
	start := time.Now()
	k.sink += k.run()
	return time.Since(start).Nanoseconds()
}
