package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/obs"
)

// dynamicSpec is a dynamic workload: a DynamicMIS bootstrapped with
// Algorithm 1 on G(n, p), then driven through a replayed churn cycle.
// One op is one ApplyBatch of one window of updates.
type dynamicSpec struct {
	n      int
	avgDeg float64
	window int
}

var dynamicChurn = dynamicSpec{n: 100000, avgDeg: 8, window: 64}

const (
	cycleWindows    = 4096  // windows in one replayable churn cycle
	blockWindows    = 1024  // windows between kernel runs (≈50 ms)
	checkBlocks     = 2     // blocks of an instance between its Checks
	counterWindows  = 2048  // windows in the fixed-seed counter pass
	tracedWindowCap = 16384 // traced windows per traced run (bounds the trace file)
)

// churnRunner drives one DynamicMIS through the replayed cycle and keeps
// the windows it applied since its last passing Check.
type churnRunner struct {
	d       *energymis.DynamicMIS
	stream  []energymis.Update
	window  int
	next    int // windows applied
	pending int // windows applied without error since the last Check
	sum     energymis.BatchStats
}

// apply runs the next window and returns its wall time. A window fails
// on an ApplyBatch error or a CONGEST violation.
func (c *churnRunner) apply() (int64, error) {
	w := c.next % (len(c.stream) / c.window)
	ups := c.stream[w*c.window : (w+1)*c.window]
	start := time.Now()
	bs, err := c.d.ApplyBatch(ups)
	ns := time.Since(start).Nanoseconds()
	c.next++
	if err == nil && bs.Violations > 0 {
		err = fmt.Errorf("window %d: %d CONGEST violations", c.next-1, bs.Violations)
	}
	c.sum.Add(bs)
	return ns, err
}

// checkChurn verifies the maintained set and settles the pending windows: all
// pass with it, or all fail. It returns the time the check took.
func (b *bench) checkChurn(c *churnRunner) int64 {
	start := time.Now()
	err := c.d.Check()
	ns := time.Since(start).Nanoseconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "misbench: check after window %d: %v\n", c.next, err)
	}
	for ; c.pending > 0; c.pending-- {
		b.tally(err == nil)
	}
	return ns
}

func (b *bench) runDynamic(spec dynamicSpec) error {
	edges := gnpEdges(spec.n, spec.avgDeg, derive(b.seed, seedGraph, 0))
	stream := churnCycle(spec.n, edges, cycleWindows, spec.window, derive(b.seed, seedStream, 0))
	opts := energymis.DynamicOptions{Seed: derive(b.seed, seedRepair, 0), Window: spec.window, Workers: opWorkers}
	fmt.Fprintf(b.out, "input G(n=%d, avgdeg=%g): m=%d, churn cycle %d windows of %d, workers=%d\n",
		spec.n, spec.avgDeg, len(edges), cycleWindows, spec.window, opWorkers)

	// Set-up: graph build, then NewDynamic with its bootstrap run; the
	// last repeat's instance is kept.
	var d *energymis.DynamicMIS
	err := b.measureSetup("setup.bootstrap_ref_ms", func() (setupPhases, bool, error) {
		d = nil
		settleHeap()
		start := time.Now()
		g := energymis.FromEdges(spec.n, edges)
		graphNS := time.Since(start).Nanoseconds()
		runtime.GC()
		start = time.Now()
		var err error
		d, err = energymis.NewDynamic(g, energymis.Algorithm1, opts)
		return setupPhases{graphNS, time.Since(start).Nanoseconds()}, err == nil, err
	})
	if err != nil {
		return err
	}

	runners := []*churnRunner{{d: d, stream: stream, window: spec.window}}
	var tracePath string
	if b.trace {
		// A second, identical instance streams its repairs to a trace.
		// The two alternate by block, so both see the same host spells.
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return err
		}
		tracePath = filepath.Join(".bench_build", fmt.Sprintf("misbench-trace-%d.jsonl", os.Getpid()))
		topts := opts
		topts.TracePath = tracePath
		dt, err := energymis.NewDynamic(energymis.FromEdges(spec.n, edges), energymis.Algorithm1, topts)
		b.tally(err == nil)
		if err != nil {
			return fmt.Errorf("traced set-up: %w", err)
		}
		defer os.Remove(tracePath)
		runners = append(runners, &churnRunner{d: dt, stream: stream, window: spec.window})
	}
	edges = nil
	var baseStats energymis.DynamicStats
	var basePerf energymis.DynamicPerf
	if b.trace {
		baseStats, basePerf = runners[1].d.Stats(), runners[1].d.Perf()
	}

	// Timed loop: the kernel runs after every block of windows; each
	// window is calibrated by the kernel runs around its block.
	var plain, traced []opSample
	var checkNS float64
	var gd goDelta
	wall := make([]int64, blockWindows)
	k0 := b.kernel()
	loopStart := time.Now()
	for blk := 0; time.Since(loopStart) < b.seconds; blk++ {
		c := runners[0]
		useTrace := b.trace && blk%2 == 1 && runners[1].next < tracedWindowCap
		if useTrace {
			c = runners[1]
		}
		var g0 goStats
		if b.trace && !useTrace {
			g0 = readGoStats()
		}
		for i := range wall {
			ns, err := c.apply()
			wall[i] = ns
			if err != nil {
				b.tally(false)
				fmt.Fprintf(os.Stderr, "misbench: %v\n", err)
				continue
			}
			c.pending++
		}
		if b.trace && !useTrace {
			gd.add(g0, readGoStats(), len(wall))
		}
		k1 := b.kernel()
		for _, ns := range wall {
			s := opSample{wallNS: ns, kBefore: k0, kAfter: k1}
			if useTrace {
				traced = append(traced, s)
			} else {
				plain = append(plain, s)
			}
		}
		if c.next%(checkBlocks*blockWindows) == 0 {
			checkNS += float64(b.checkChurn(c)) * opSample{kBefore: k0, kAfter: k1}.scale()
		}
		k0 = k1
	}
	for _, c := range runners {
		b.checkChurn(c)
	}
	// The final state also passes the benchmark's own verifier, which is
	// independent of the engine's Check.
	sg, _, set := runners[0].d.Snapshot()
	err = b.verifySet(sg, set)
	b.tally(err == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "misbench: final snapshot: %v\n", err)
	}

	lat := summarize(plain)
	b.reportLatency(lat)
	b.set("verify.check_ref_ms", checkNS/float64(len(plain)+len(traced))/1e6, "ref-ms")
	b.setGoMetrics(gd)

	if b.trace {
		tr := runners[1]
		if err := tr.d.Close(); err != nil {
			return err
		}
		t, err := obs.ReadTraceFile(tracePath)
		if err != nil {
			return err
		}
		ct := foldChurnTrace(t)
		st, perf := tr.d.Stats(), tr.d.Perf()
		b.reportChurnLayers(ct, traced, lat, tr.sum,
			st.Elections-baseStats.Elections, perf.SweepWords-basePerf.SweepWords, st.MaxRegion)
	}
	runners = nil
	d = nil
	return b.churnCounters(spec)
}

// churnCounters runs the fixed-seed counter pass: counterWindows windows
// on the instance and stream of counterSeed. Its counters depend neither
// on the workload seed nor on how many windows the timed loop fit in.
func (b *bench) churnCounters(spec dynamicSpec) error {
	settleHeap()
	edges := gnpEdges(spec.n, spec.avgDeg, derive(counterSeed, seedGraph, 0))
	stream := churnCycle(spec.n, edges, 2*counterWindows, spec.window, derive(counterSeed, seedStream, 0))
	opts := energymis.DynamicOptions{Seed: derive(counterSeed, seedRepair, 0), Window: spec.window, Workers: opWorkers}
	d, err := energymis.NewDynamic(energymis.FromEdges(spec.n, edges), energymis.Algorithm1, opts)
	b.tally(err == nil)
	if err != nil {
		return fmt.Errorf("counter pass set-up: %w", err)
	}
	c := &churnRunner{d: d, stream: stream, window: spec.window}
	before := d.AwakePerNode()
	for c.next < counterWindows {
		if _, err := c.apply(); err != nil {
			b.tally(false)
			return fmt.Errorf("counter pass: %w", err)
		}
		c.pending++
	}
	after := d.AwakePerNode()
	b.checkChurn(c)
	var energyMax int64
	for v := range before {
		energyMax = max(energyMax, after[v]-before[v])
	}
	w := float64(counterWindows)
	b.set("rounds_per_op", float64(c.sum.Rounds)/w, "rounds")
	b.set("messages_per_op", float64(c.sum.Messages)/w, "count")
	b.set("energy_max", float64(energyMax), "rounds")
	b.set("energy_avg", float64(c.sum.AwakeRounds)/float64(c.sum.Updates), "rounds")
	return nil
}

// churnTrace is what a dynamic run trace says about its repairs.
type churnTrace struct {
	electNS  int64 // wall inside election and singleton spans
	engineNS int64 // Σ Round.WallNS of election-engine rounds
	rounds   int64 // election-engine rounds
	awake    int64
	msgs     int64
}

// electionSpan reports whether a span belongs to re-election: the engine
// elections and the synthetic span of analytic singleton joins.
func electionSpan(name string) bool {
	switch name {
	case "repair/luby", "repair/ghaffari", "repair/finisher", "repair/singleton":
		return true
	}
	return false
}

// engineSpan reports whether a span's rounds ran on an election engine.
func engineSpan(name string) bool { return electionSpan(name) && name != "repair/singleton" }

// foldChurnTrace sums what a dynamic run trace says about its repairs.
func foldChurnTrace(t *obs.Trace) churnTrace {
	var ct churnTrace
	for _, rec := range t.Records {
		switch {
		case rec.Type == obs.RecPhase && electionSpan(rec.Name):
			ct.electNS += rec.WallNS
		case rec.Type == obs.RecRound && engineSpan(rec.Phase):
			ct.engineNS += rec.WallNS
			ct.rounds++
			ct.awake += rec.Awake
			ct.msgs += rec.MsgsSent
		}
	}
	return ct
}

// reportChurnLayers sets the per-layer metrics of a traced dynamic run
// and prints its table. Trace wall times are raw; they are scaled by the
// traced windows' mean calibration factor.
func (b *bench) reportChurnLayers(ct churnTrace, traced []opSample, plain latency,
	sum energymis.BatchStats, elections, sweepWords int64, maxRegion int) {
	if len(traced) == 0 {
		return
	}
	var rawNS, refNS float64
	for _, s := range traced {
		rawNS += float64(s.wallNS)
		refNS += s.refNS()
	}
	scale := refNS / rawNS
	w := float64(len(traced))
	apply := refNS / w / 1e6
	elect := float64(ct.electNS) * scale / w / 1e6
	overhead := summarize(traced).p50RefMS / plain.p50RefMS
	b.set("host.tracing_overhead", overhead, "ratio")
	b.set("dynamic.apply_ref_ms", apply, "ref-ms")
	b.set("dynamic.elect_ref_ms", elect, "ref-ms")
	b.set("dynamic.rest_ref_ms", apply-elect, "ref-ms")
	b.set("dynamic.woken", float64(sum.Woken)/w, "count")
	b.set("dynamic.evictions", float64(sum.Evictions)/w, "count")
	b.set("dynamic.elections", float64(elections)/w, "count")
	b.set("dynamic.engine_rounds", float64(ct.rounds)/w, "rounds")
	b.set("dynamic.sweep_words", float64(sweepWords)/w, "count")
	b.set("dynamic.max_region", float64(maxRegion), "count")
	if ct.awake > 0 {
		b.set("sim.ns_per_awake_node_round", float64(ct.engineNS)*scale/float64(ct.awake), "ref-ns")
	}
	b.set("sim.executed_rounds", float64(ct.rounds)/w, "rounds")
	b.set("sim.awake_node_rounds", float64(ct.awake)/w, "count")
	b.set("sim.messages", float64(ct.msgs)/w, "count")

	fmt.Fprintf(b.out, "per-layer split, ref-ms per window over %d traced windows (tracing overhead %.3fx)\n",
		len(traced), overhead)
	fmt.Fprintf(b.out, "%-18s %10.4f\n", "apply", apply)
	fmt.Fprintf(b.out, "%-18s %10.4f %8s  (election + singleton spans; engine %.4f)\n",
		"  elect", elect, share(elect, apply), float64(ct.engineNS)*scale/w/1e6)
	fmt.Fprintf(b.out, "%-18s %10.4f %8s  (detection, apply, sweeps: unattributed remainder)\n",
		"  rest", apply-elect, share(apply-elect, apply))
	fmt.Fprintf(b.out, "per window: woken %.1f, evictions %.2f, elections %.2f, engine rounds %.3f, sweep words %.1f; max region %d\n",
		float64(sum.Woken)/w, float64(sum.Evictions)/w, float64(elections)/w, float64(ct.rounds)/w,
		float64(sweepWords)/w, maxRegion)
}
