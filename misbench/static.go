package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/core"
)

// staticSpec is a static workload: one op runs every algorithm once on a
// G(n, p) instance, each run verified.
type staticSpec struct {
	n      int
	avgDeg float64
}

// Op kinds of a static timed loop.
const (
	opPlain = iota
	opTraced
	opParallel
)

var (
	staticSparse = staticSpec{n: 16384, avgDeg: 10}
	staticDense  = staticSpec{n: 4096, avgDeg: 512}
)

// runCounts are one run's deterministic complexity measures.
type runCounts struct {
	rounds   int
	maxAwake int
	avgAwake float64
	messages int64
}

func (c *runCounts) add(o runCounts) {
	c.rounds += o.rounds
	c.maxAwake += o.maxAwake
	c.avgAwake += o.avgAwake
	c.messages += o.messages
}

// staticOp is the outcome of one op.
type staticOp struct {
	wallNS  int64   // Σ run wall, the op's time
	checkNS int64   // verification, outside the op's time
	runNS   []int64 // per algorithm
	counts  []runCounts
	ok      bool
}

// runStaticOp runs every algorithm on g with one seed and verifies each
// output outside the timed region. An op fails on a run error, a set
// that is not a maximal independent set, or a CONGEST violation. With
// traces, run i reports to traces[i].
func (b *bench) runStaticOp(g *energymis.Graph, mem *energymis.Mem, workers int, seed uint64, traces []*runTrace) staticOp {
	algos := energymis.Algorithms()
	op := staticOp{runNS: make([]int64, len(algos)), counts: make([]runCounts, len(algos)), ok: true}
	for i, a := range algos {
		opts := energymis.Options{Seed: seed, Workers: workers, Mem: mem}
		if traces != nil {
			adv := core.DefaultOptions()
			adv.Tracer = traces[i]
			opts.Advanced = &adv
		}
		start := time.Now()
		res, err := energymis.Run(g, a, opts)
		op.runNS[i] = time.Since(start).Nanoseconds()
		op.wallNS += op.runNS[i]

		start = time.Now()
		switch {
		case err != nil:
		case res.CongestViolations > 0:
			err = fmt.Errorf("%d CONGEST violations", res.CongestViolations)
		default:
			err = b.verifySet(g, res.InSet)
		}
		op.checkNS += time.Since(start).Nanoseconds()
		if err != nil {
			op.ok = false
			fmt.Fprintf(os.Stderr, "misbench: %s seed %d: %v\n", a, seed, err)
			continue
		}
		op.counts[i] = runCounts{res.Rounds, res.MaxAwake, res.AvgAwake, res.Messages}
	}
	return op
}

func (b *bench) runStatic(spec staticSpec) error {
	edges := gnpEdges(spec.n, spec.avgDeg, derive(b.seed, seedGraph, 0))
	fmt.Fprintf(b.out, "input G(n=%d, avgdeg=%g): m=%d, workers=%d\n", spec.n, spec.avgDeg, len(edges), opWorkers)

	// Set-up: graph build, then engine pool and the first (cold) op; the
	// last repeat's graph and pool are kept.
	var g *energymis.Graph
	var mem *energymis.Mem
	err := b.measureSetup("setup.first_op_ref_ms", func() (setupPhases, bool, error) {
		g, mem = nil, nil
		settleHeap()
		start := time.Now()
		g = energymis.FromEdges(spec.n, edges)
		graphNS := time.Since(start).Nanoseconds()
		runtime.GC()
		start = time.Now()
		mem = energymis.NewMem()
		first := b.runStaticOp(g, mem, opWorkers, derive(b.seed, seedSetup, 0), nil)
		return setupPhases{graphNS, time.Since(start).Nanoseconds() - first.checkNS}, first.ok, nil
	})
	if err != nil {
		return err
	}
	edges = nil

	// Timed loop: the kernel runs after every op, so each op is bracketed
	// by two kernel runs. A traced run alternates traced and untraced ops.
	algos := energymis.Algorithms()
	var traces []*runTrace
	layers := make([]algoLayers, len(algos))
	if b.trace {
		for range algos {
			traces = append(traces, newRunTrace())
		}
	}
	// A traced run cycles through three kinds of op: untraced, traced,
	// and untraced on the parallel executor (Workers=2, own pool), so
	// tracing overhead and the executor's cost are read against untraced
	// ops of the same host spells.
	var plain, traced, parallel []opSample
	var mem2 *energymis.Mem
	if b.trace {
		mem2 = energymis.NewMem()
	}
	var checkRef float64
	var gd goDelta
	runtime.GC()
	k0 := b.kernel()
	loopStart := time.Now()
	for i := 0; time.Since(loopStart) < b.seconds; i++ {
		kind := opPlain
		if b.trace {
			kind = i % 3
		}
		var opTraces []*runTrace
		workers, opMem := opWorkers, mem
		switch kind {
		case opTraced:
			opTraces = traces
			for _, t := range traces {
				t.reset()
			}
		case opParallel:
			workers, opMem = 2, mem2
		}
		g0 := readGoStats()
		op := b.runStaticOp(g, opMem, workers, derive(b.seed, seedOp, uint64(i)), opTraces)
		g1 := readGoStats()
		// Settle the op's garbage before the kernel runs, so the kernel
		// never shares the machine with a GC cycle and every op starts
		// from the same heap state.
		runtime.GC()
		k1 := b.kernel()
		b.tally(op.ok)
		s := opSample{wallNS: op.wallNS, kBefore: k0, kAfter: k1}
		k0 = k1
		checkRef += float64(op.checkNS) * s.scale()
		switch kind {
		case opPlain:
			plain = append(plain, s)
			gd.add(g0, g1, 1)
		case opTraced:
			traced = append(traced, s)
			for j := range algos {
				layers[j].add(op.runNS[j], traces[j], s.scale())
			}
		case opParallel:
			parallel = append(parallel, s)
		}
	}
	g, mem, mem2 = nil, nil, nil

	lat := summarize(plain)
	b.reportLatency(lat)
	b.set("verify.check_ref_ms", checkRef/float64(len(plain)+len(traced)+len(parallel))/1e6, "ref-ms")
	b.setGoMetrics(gd)

	counts, err := b.staticCounters(spec)
	if err != nil {
		return err
	}
	var total runCounts
	for i, a := range algos {
		c := counts[i]
		p := a.String()
		b.set("count."+p+".rounds", float64(c.rounds)/counterOps, "rounds")
		b.set("count."+p+".max_awake", float64(c.maxAwake)/counterOps, "rounds")
		b.set("count."+p+".avg_awake", c.avgAwake/counterOps, "rounds")
		b.set("count."+p+".messages", float64(c.messages)/counterOps, "count")
		total.add(c)
	}
	b.set("rounds_per_op", float64(total.rounds)/counterOps, "rounds")
	b.set("energy_max", float64(total.maxAwake)/counterOps, "rounds")
	b.set("energy_avg", total.avgAwake/counterOps, "rounds")
	b.set("messages_per_op", float64(total.messages)/counterOps, "count")

	if b.trace {
		b.reportStaticLayers(algos, layers, traced, lat)
		if len(parallel) > 0 {
			par := summarize(parallel).p50RefMS
			b.set("sim.workers2_op_ref_ms", par, "ref-ms")
			b.set("sim.workers2_slowdown", par/lat.p50RefMS, "ratio")
			fmt.Fprintf(b.out, "parallel executor: Workers=2 op p50 %.3f ref-ms over %d ops, %.2fx the Workers=%d op\n",
				par, len(parallel), par/lat.p50RefMS, opWorkers)
		}
	}
	return nil
}

// staticCounters runs the fixed-seed counter pass: counterOps ops on the
// instance of counterSeed. Its sums depend neither on the workload seed
// nor on how many ops the timed loop fit in, so they repeat exactly.
func (b *bench) staticCounters(spec staticSpec) ([]runCounts, error) {
	settleHeap()
	g := energymis.FromEdges(spec.n, gnpEdges(spec.n, spec.avgDeg, derive(counterSeed, seedGraph, 0)))
	mem := energymis.NewMem()
	sum := make([]runCounts, len(energymis.Algorithms()))
	for i := 0; i < counterOps; i++ {
		op := b.runStaticOp(g, mem, opWorkers, derive(counterSeed, seedOp, uint64(i)), nil)
		b.tally(op.ok)
		if !op.ok {
			return nil, fmt.Errorf("counter op %d failed verification", i)
		}
		for j, c := range op.counts {
			sum[j].add(c)
		}
	}
	return sum, nil
}

// reportLatency sets the calibrated end-to-end latency metrics and prints
// what the JSON line cannot carry: the tail's percentile and op count.
func (b *bench) reportLatency(lat latency) {
	fmt.Fprintf(b.out, "ops %d: p50 %.4f ref-ms, tail p%.3f %.4f ref-ms (%d ops beyond), raw p50 %.4f ms, kernel %.4f ms\n",
		lat.ops, lat.p50RefMS, lat.tailPct, lat.tailRefMS, lat.ops-int(math.Round(lat.tailPct/100*float64(lat.ops))),
		lat.rawP50MS, lat.kernelMS)
	fmt.Fprintf(b.out, "quantiles ref-ms: p90 %.4f p99 %.4f p99.9 %.4f p99.99 %.4f\n",
		lat.quantile(0.9), lat.quantile(0.99), lat.quantile(0.999), lat.quantile(0.9999))
	b.set("ops_per_ref_s", lat.opsPerRefS, "1/ref-s")
	b.set("op_p50_ref_ms", lat.p50RefMS, "ref-ms")
	b.set("op_tail_ref_ms", lat.tailRefMS, "ref-ms")
	b.set("host.kernel_ms", lat.kernelMS, "ms")
	b.set("host.raw_op_p50_ms", lat.rawP50MS, "ms")
}

// reportStaticLayers sets the per-layer metrics of a traced static run
// and prints its table.
func (b *bench) reportStaticLayers(algos []energymis.Algorithm, layers []algoLayers, traced []opSample, plain latency) {
	n := float64(len(traced))
	if n == 0 {
		return
	}
	tl := summarize(traced)
	overhead := tl.p50RefMS / plain.p50RefMS
	b.set("host.tracing_overhead", overhead, "ratio")
	var engNS, awake, rounds, msgs float64
	names := make([]string, len(algos))
	for i, a := range algos {
		l := layers[i]
		p := a.String()
		names[i] = p
		b.set("run."+p+".ref_ms", l.runNS/n/1e6, "ref-ms")
		b.set("engine."+p+".ref_ms", l.engineNS/n/1e6, "ref-ms")
		b.set("glue."+p+".ref_ms", (l.runNS-l.spansNS())/n/1e6, "ref-ms")
		for _, s := range algoSpans[a] {
			key := "phase." + p + "." + spanMetric(s)
			b.set(key+".ref_ms", l.spanNS[s]/n/1e6, "ref-ms")
			b.set(key+".self_ref_ms", (l.spanNS[s]-l.spanEngNS[s])/n/1e6, "ref-ms")
		}
		engNS += l.engineNS
		awake += l.awake
		rounds += l.rounds
		msgs += l.msgs
	}
	if awake > 0 {
		b.set("sim.ns_per_awake_node_round", engNS/awake, "ref-ns")
	}
	b.set("sim.executed_rounds", rounds/n, "rounds")
	b.set("sim.awake_node_rounds", awake/n, "count")
	b.set("sim.messages", msgs/n, "count")
	printStaticSplit(b.out, names, layers, len(traced), overhead)
}

// fmtSeconds renders ns values as seconds for the log.
func fmtSeconds(ns []float64) string {
	s := ""
	for i, v := range ns {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4f", v/1e9)
	}
	return s
}
