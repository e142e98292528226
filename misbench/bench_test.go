package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/energymis/energymis"
	"github.com/energymis/energymis/internal/obs"
)

// Small instances of each workload kind, fast enough for unit tests.
var (
	testSparse = staticSpec{n: 600, avgDeg: 8}
	// Δ ≈ 300 > 2^(2⌈log log 512⌉) = 256, so Phase I does work.
	testDense = staticSpec{n: 512, avgDeg: 300}
	testChurn = dynamicSpec{n: 2000, avgDeg: 6, window: 16}
)

func newTestBench(seed uint64, seconds time.Duration, trace bool) *bench {
	return newBench(seed, seconds, trace, io.Discard)
}

func TestKernelAllocatesNothing(t *testing.T) {
	k := newRefKernel()
	if allocs := testing.AllocsPerRun(5, func() { k.run() }); allocs != 0 {
		t.Fatalf("kernel run allocates %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { k.timed() }); allocs != 0 {
		t.Fatalf("timed kernel run allocates %v times", allocs)
	}
}

// TestKernelFrozen pins the kernel's graph and work: changing either
// re-bases every calibrated number, so it must be a deliberate act.
func TestKernelFrozen(t *testing.T) {
	k := newRefKernel()
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range k.adj {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	if got, want := h.Sum64(), uint64(0x6f278b3b11a3a31); got != want {
		t.Errorf("kernel graph fingerprint %#x, want %#x", got, want)
	}
	if got, want := k.run(), 98259; got != want {
		t.Errorf("kernel reached %d nodes, want %d", got, want)
	}
}

// TestCalibrationScaleInvariant: a host that runs everything f times
// slower must report the same calibrated numbers.
func TestCalibrationScaleInvariant(t *testing.T) {
	r := splitmix(7)
	samples := make([]opSample, 200)
	kernels := make([]float64, 0, 400)
	for i := range samples {
		samples[i] = opSample{
			wallNS:  int64(1e6 + r.intn(5e6)),
			kBefore: int64(2.5e6 + r.intn(2e6)),
			kAfter:  int64(2.5e6 + r.intn(2e6)),
		}
		kernels = append(kernels, float64(samples[i].kBefore), float64(samples[i].kAfter))
	}
	base := summarize(samples)
	baseSetup := runRefNS(4e8, append([]float64(nil), kernels...))
	for _, f := range []int64{2, 3, 7} {
		scaled := make([]opSample, len(samples))
		for i, s := range samples {
			scaled[i] = opSample{s.wallNS * f, s.kBefore * f, s.kAfter * f}
		}
		got := summarize(scaled)
		sk := make([]float64, len(kernels))
		for i, k := range kernels {
			sk[i] = k * float64(f)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"ops_per_ref_s", got.opsPerRefS, base.opsPerRefS},
			{"op_p50_ref_ms", got.p50RefMS, base.p50RefMS},
			{"op_tail_ref_ms", got.tailRefMS, base.tailRefMS},
			{"tail percentile", got.tailPct, base.tailPct},
			{"setup_s", runRefNS(4e8*float64(f), sk), baseSetup},
		} {
			if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
				t.Errorf("factor %d: %s = %v, want %v", f, c.name, c.got, c.want)
			}
		}
		if got.rawP50MS <= base.rawP50MS {
			t.Errorf("factor %d: raw p50 %v did not grow from %v", f, got.rawP50MS, base.rawP50MS)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{5, 100},       // too few ops: slowest op
		{30, 66.667},   // 10 ops beyond
		{100, 90},      // 10 ops beyond
		{5000, 99},     // capped at p99
		{100000, 99.0}, // capped at p99
	} {
		samples := make([]opSample, c.n)
		for i := range samples {
			samples[i] = opSample{wallNS: int64(i + 1), kBefore: refKernelNS, kAfter: refKernelNS}
		}
		l := summarize(samples)
		if math.Abs(l.tailPct-c.wantPct) > 0.001 {
			t.Errorf("n=%d: tail at p%.3f, want p%.3f", c.n, l.tailPct, c.wantPct)
		}
		beyond := 0
		for _, s := range samples {
			if s.refNS()/1e6 > l.tailRefMS {
				beyond++
			}
		}
		if c.n > 2*tailBeyond && beyond < tailBeyond {
			t.Errorf("n=%d: %d ops beyond the tail, want ≥ %d", c.n, beyond, tailBeyond)
		}
	}
}

func TestGNPEdgesDeterministicAndSimple(t *testing.T) {
	a := gnpEdges(3000, 12, 5)
	b := gnpEdges(3000, 12, 5)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d edges", len(a), len(b))
	}
	seen := map[[2]int]bool{}
	for i, e := range a {
		if e != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e, b[i])
		}
		if e[0] >= e[1] || e[0] < 0 || e[1] >= 3000 || seen[e] {
			t.Fatalf("edge %v is a loop, out of range or repeated", e)
		}
		seen[e] = true
	}
	if avg := 2 * float64(len(a)) / 3000; math.Abs(avg-12) > 1 {
		t.Errorf("average degree %.2f, want ≈12", avg)
	}
	if c := gnpEdges(3000, 12, 6); len(c) == len(a) && c[0] == a[0] && c[len(c)-1] == a[len(a)-1] {
		t.Errorf("different seeds gave the same graph")
	}
}

// TestChurnCycleReturnsToStart applies a cycle to the edge set: every op
// must be valid where it is applied, and the cycle must end where it began.
func TestChurnCycleReturnsToStart(t *testing.T) {
	edges := gnpEdges(500, 6, 3)
	cycle := churnCycle(500, edges, 64, 8, 4)
	if len(cycle) != 64*8 {
		t.Fatalf("cycle has %d updates, want %d", len(cycle), 64*8)
	}
	key := func(u, v int) [2]int {
		if u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	present := map[[2]int]bool{}
	for _, e := range edges {
		present[key(e[0], e[1])] = true
	}
	start := len(present)
	inserts := 0
	for i, up := range cycle {
		k := key(up.U, up.V)
		switch up.Op {
		case energymis.OpInsertEdge:
			if present[k] || up.U == up.V {
				t.Fatalf("update %d inserts present edge %v", i, k)
			}
			present[k] = true
			if i < len(cycle)/2 {
				inserts++
			}
		case energymis.OpRemoveEdge:
			if !present[k] {
				t.Fatalf("update %d removes absent edge %v", i, k)
			}
			delete(present, k)
		default:
			t.Fatalf("update %d has op %v", i, up.Op)
		}
	}
	if len(present) != start {
		t.Fatalf("cycle changed the edge count from %d to %d", start, len(present))
	}
	for _, e := range edges {
		if !present[key(e[0], e[1])] {
			t.Fatalf("edge %v missing after the cycle", e)
		}
	}
	if half := len(cycle) / 2; inserts == 0 || inserts == half {
		t.Errorf("first half has %d inserts of %d toggles, want a mix", inserts, half)
	}
}

// TestRunTraceKeysByPhaseStart: degreduce closes "phase-i.<k>" spans under
// one "phase-i" start; all of them, and the rounds between, belong to it.
func TestRunTraceKeysByPhaseStart(t *testing.T) {
	tr := newRunTrace()
	tr.PhaseStart("phase-i")
	tr.Round(obs.RoundStats{Awake: 10, MsgsSent: 5, WallNS: 100})
	tr.PhaseEnd(obs.PhaseStats{Name: "phase-i.0", WallNS: 300})
	tr.Round(obs.RoundStats{Awake: 4, MsgsSent: 2, WallNS: 50})
	tr.PhaseEnd(obs.PhaseStats{Name: "phase-i.1", WallNS: 200})
	tr.PhaseStart("sync-i/ii")
	tr.Round(obs.RoundStats{Awake: 99})
	tr.PhaseEnd(obs.PhaseStats{Name: "sync-i/ii"})
	tr.PhaseStart("phase-iii.retry1")
	tr.Round(obs.RoundStats{Awake: 1, WallNS: 7})
	tr.PhaseEnd(obs.PhaseStats{Name: "phase-iii.retry1", WallNS: 9})

	if got := tr.spanNS["phase-i"]; got != 500 {
		t.Errorf("phase-i span %d ns, want 500", got)
	}
	if got := tr.spanEng["phase-i"]; got != 150 {
		t.Errorf("phase-i engine %d ns, want 150", got)
	}
	if got := tr.spanNS["phase-iii"]; got != 9 {
		t.Errorf("retry not folded into phase-iii: %v", tr.spanNS)
	}
	if _, ok := tr.spanNS["sync-i/ii"]; ok {
		t.Errorf("sync span recorded: %v", tr.spanNS)
	}
	if tr.rounds != 3 || tr.awake != 15 || tr.msgs != 7 || tr.engineNS != 157 {
		t.Errorf("engine totals rounds=%d awake=%d msgs=%d ns=%d", tr.rounds, tr.awake, tr.msgs, tr.engineNS)
	}
	tr.reset()
	if len(tr.spanNS) != 0 || tr.rounds != 0 || tr.cur != "" {
		t.Errorf("reset left state: %+v", tr)
	}
}

func TestFoldChurnTrace(t *testing.T) {
	trace := strings.Join([]string{
		`{"type":"header","schema_version":1}`,
		`{"type":"phase_start","name":"repair/luby"}`,
		`{"type":"round","phase":"repair/luby","seq":1,"awake":6,"msgs_sent":9,"wall_ns":40}`,
		`{"type":"phase","name":"repair/luby","rounds":1,"wall_ns":70}`,
		`{"type":"phase_start","name":"repair/singleton"}`,
		`{"type":"round","phase":"repair/singleton","seq":2,"awake":3}`,
		`{"type":"phase","name":"repair/singleton","rounds":3}`,
		`{"type":"phase_start","name":"repair/detect"}`,
		`{"type":"round","phase":"repair/detect","seq":3,"awake":50,"msgs_sent":80}`,
		`{"type":"phase","name":"repair/detect","rounds":1}`,
	}, "\n")
	tr, err := obs.ReadTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	ct := foldChurnTrace(tr)
	want := churnTrace{electNS: 70, engineNS: 40, rounds: 1, awake: 6, msgs: 9}
	if ct != want {
		t.Errorf("got %+v, want %+v", ct, want)
	}
}

func staticReplay(t *testing.T, spec staticSpec) []runCounts {
	t.Helper()
	g := energymis.FromEdges(spec.n, gnpEdges(spec.n, spec.avgDeg, derive(counterSeed, seedGraph, 0)))
	sum := make([]runCounts, len(energymis.Algorithms()))
	for i := 0; i < counterOps; i++ {
		for j, a := range energymis.Algorithms() {
			res, err := energymis.RunVerified(g, a, energymis.Options{
				Seed: derive(counterSeed, seedOp, uint64(i)), Workers: opWorkers,
			})
			if err != nil {
				t.Fatalf("replay %s op %d: %v", a, i, err)
			}
			sum[j].add(runCounts{res.Rounds, res.MaxAwake, res.AvgAwake, res.Messages})
		}
	}
	return sum
}

var counterMetrics = []string{"rounds_per_op", "energy_max", "energy_avg", "messages_per_op"}

// TestStaticCountersRepeatAndReplay: two short runs with different
// workload seeds and lengths report identical counters, equal to a direct
// energymis.Run replay of the counter pass's seeds.
func TestStaticCountersRepeatAndReplay(t *testing.T) {
	for _, spec := range []staticSpec{testSparse, testDense} {
		a := newTestBench(11, 50*time.Millisecond, false)
		if err := a.runStatic(spec); err != nil {
			t.Fatal(err)
		}
		b := newTestBench(12, 300*time.Millisecond, false)
		if err := b.runStatic(spec); err != nil {
			t.Fatal(err)
		}
		for _, m := range counterMetrics {
			if a.metrics[m] != b.metrics[m] {
				t.Errorf("n=%d %s: %v vs %v", spec.n, m, a.metrics[m], b.metrics[m])
			}
		}
		var total runCounts
		for _, c := range staticReplay(t, spec) {
			total.add(c)
		}
		want := map[string]float64{
			"rounds_per_op":   float64(total.rounds) / counterOps,
			"energy_max":      float64(total.maxAwake) / counterOps,
			"energy_avg":      total.avgAwake / counterOps,
			"messages_per_op": float64(total.messages) / counterOps,
		}
		for m, w := range want {
			if got := a.metrics[m].Value; got != w {
				t.Errorf("n=%d %s = %v, replay gives %v", spec.n, m, got, w)
			}
		}
		if a.failed != 0 || b.failed != 0 {
			t.Errorf("n=%d: failed ops %d and %d", spec.n, a.failed, b.failed)
		}
	}
}

func TestChurnCountersRepeatAndReplay(t *testing.T) {
	a := newTestBench(21, 20*time.Millisecond, false)
	if err := a.runDynamic(testChurn); err != nil {
		t.Fatal(err)
	}
	b := newTestBench(22, 200*time.Millisecond, false)
	if err := b.runDynamic(testChurn); err != nil {
		t.Fatal(err)
	}
	for _, m := range counterMetrics {
		if a.metrics[m] != b.metrics[m] {
			t.Errorf("%s: %v vs %v", m, a.metrics[m], b.metrics[m])
		}
	}

	// Direct replay of the counter pass.
	spec := testChurn
	edges := gnpEdges(spec.n, spec.avgDeg, derive(counterSeed, seedGraph, 0))
	stream := churnCycle(spec.n, edges, 2*counterWindows, spec.window, derive(counterSeed, seedStream, 0))
	d, err := energymis.NewDynamic(energymis.FromEdges(spec.n, edges), energymis.Algorithm1,
		energymis.DynamicOptions{Seed: derive(counterSeed, seedRepair, 0), Window: spec.window, Workers: opWorkers})
	if err != nil {
		t.Fatal(err)
	}
	before := d.AwakePerNode()
	var rounds, msgs, awake int64
	for w := 0; w < counterWindows; w++ {
		bs, err := d.ApplyBatch(stream[w*spec.window : (w+1)*spec.window])
		if err != nil {
			t.Fatal(err)
		}
		rounds += int64(bs.Rounds)
		msgs += bs.Messages
		awake += bs.AwakeRounds
	}
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	var emax int64
	for v, x := range d.AwakePerNode() {
		emax = max(emax, x-before[v])
	}
	want := map[string]float64{
		"rounds_per_op":   float64(rounds) / counterWindows,
		"messages_per_op": float64(msgs) / counterWindows,
		"energy_avg":      float64(awake) / float64(counterWindows*spec.window),
		"energy_max":      float64(emax),
	}
	for m, w := range want {
		if got := a.metrics[m].Value; got != w {
			t.Errorf("%s = %v, replay gives %v", m, got, w)
		}
	}
	if a.failed != 0 || b.failed != 0 {
		t.Errorf("failed windows %d and %d", a.failed, b.failed)
	}
}

// TestCorruptSetLowersOkFrac corrupts one set inside the benchmark's own
// verifier: the op must count as failed and the run as incorrect.
func TestCorruptSetLowersOkFrac(t *testing.T) {
	// The first check after set-up belongs to the timed loop's first op.
	firstTimed := setupRepeats*len(energymis.Algorithms()) + 1
	checks := 0
	b := newTestBench(31, 100*time.Millisecond, false)
	b.tamper = func(inSet []bool) {
		checks++
		if checks == firstTimed {
			inSet[0] = !inSet[0] // any single flip breaks an MIS
		}
	}
	if err := b.runStatic(testSparse); err != nil {
		t.Fatal(err)
	}
	res, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if checks <= firstTimed {
		t.Fatalf("verifier ran %d times, never past set-up's %d", checks, firstTimed-1)
	}
	if res.Failed != 1 || res.Correct {
		t.Errorf("failed=%d correct=%v, want 1 failed op and correct=false", res.Failed, res.Correct)
	}
	if f := res.Metrics["ok_frac"].Value; f >= 1 || f != float64(res.Attempted-1)/float64(res.Attempted) {
		t.Errorf("ok_frac = %v with %d attempted", f, res.Attempted)
	}

	// The dynamic workload's final snapshot goes through the same verifier.
	d := newTestBench(32, 20*time.Millisecond, false)
	d.tamper = func(inSet []bool) { inSet[0] = !inSet[0] }
	if err := d.runDynamic(testChurn); err != nil {
		t.Fatal(err)
	}
	dres, err := d.finish()
	if err != nil {
		t.Fatal(err)
	}
	if dres.Failed != 1 || dres.Correct || dres.Metrics["ok_frac"].Value != float64(dres.Attempted-1)/float64(dres.Attempted) {
		t.Errorf("corrupted snapshot: failed=%d of %d, correct=%v ok_frac=%v",
			dres.Failed, dres.Attempted, dres.Correct, dres.Metrics["ok_frac"].Value)
	}
}

// TestTracedRuns checks that traced runs report every per-layer metric,
// print the split, and attribute time where the workload spends it.
func TestTracedRuns(t *testing.T) {
	var out bytes.Buffer
	b := newBench(41, 400*time.Millisecond, true, &out)
	if err := b.runStatic(testDense); err != nil {
		t.Fatal(err)
	}
	res, err := b.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayerMetrics()) {
		t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayerMetrics()))
	}
	for _, m := range []string{
		"phase.algorithm2.phase-i.ref_ms", "engine.luby.ref_ms", "glue.algorithm1.ref_ms",
		"host.tracing_overhead", "sim.workers2_slowdown", "count.luby.rounds",
	} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
		}
	}
	for _, a := range energymis.Algorithms() {
		p := a.String()
		run := res.Metrics["run."+p+".ref_ms"].Value
		glue := res.Metrics["glue."+p+".ref_ms"].Value
		if glue >= run {
			t.Errorf("%s: glue %v not below run %v", p, glue, run)
		}
	}
	if !strings.Contains(out.String(), "per-layer split") {
		t.Errorf("no per-layer table in output:\n%s", out.String())
	}

	out.Reset()
	d := newBench(42, 300*time.Millisecond, true, &out)
	if err := d.runDynamic(testChurn); err != nil {
		t.Fatal(err)
	}
	dres, err := d.finish()
	if err != nil {
		t.Fatal(err)
	}
	if dres.Failed != 0 {
		t.Errorf("%d failed windows", dres.Failed)
	}
	for _, m := range []string{"dynamic.apply_ref_ms", "dynamic.woken", "dynamic.sweep_words", "setup.bootstrap_ref_ms"} {
		if dres.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, dres.Metrics[m].Value)
		}
	}
	if dres.Metrics["engine.luby.ref_ms"].Value != 0 {
		t.Errorf("static layer reads %v on the dynamic workload", dres.Metrics["engine.luby.ref_ms"].Value)
	}
	if !strings.Contains(out.String(), "per-layer split") {
		t.Errorf("no per-layer table in output:\n%s", out.String())
	}
	if files, _ := os.ReadDir(".bench_build"); len(files) != 0 {
		t.Errorf("trace files left behind: %v", files)
	}
	os.Remove(".bench_build")
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics())
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "static-sparse", "--trace", "2"},
		{"--workload", "static-sparse", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v printed a result", args)
		}
	}
}
