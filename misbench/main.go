package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/energymis/energymis"
)

// Run-shape constants shared by the workloads.
const (
	setupRepeats = 21 // identical set-ups per run; setup_s is their median
	counterOps   = 4  // static ops in the fixed-seed counter pass
	counterSeed  = 1  // workload seed of the counter pass's inputs
	opWorkers    = 1  // executor workers of every op (a traced static run adds Workers=2 ops)
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"static-sparse": func(b *bench) error { return b.runStatic(staticSparse) },
	"static-dense":  func(b *bench) error { return b.runStatic(staticDense) },
	"dynamic-churn": func(b *bench) error { return b.runDynamic(dynamicChurn) },
}

// bench is one benchmark run: its flags, the reference kernel, the op
// tally and the metrics it reports.
type bench struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     io.Writer

	kern      *refKernel
	kernelNS  []float64 // every kernel run of the run, in ns
	setupNS   float64   // median raw set-up time
	attempted int
	failed    int
	metrics   map[string]metric

	// tamper, when set, is applied to every set the verifier checks
	// (tests use it to prove a wrong set is counted as failed).
	tamper func(inSet []bool)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newBench(seed uint64, seconds time.Duration, trace bool, out io.Writer) *bench {
	return &bench{
		seed: seed, seconds: seconds, trace: trace, out: out,
		kern:    newRefKernel(),
		metrics: map[string]metric{},
	}
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

// kernel runs the reference kernel once and returns its time in ns.
func (b *bench) kernel() int64 {
	ns := b.kern.timed()
	b.kernelNS = append(b.kernelNS, float64(ns))
	return ns
}

// setupPhases is one set-up's wall time, split at the graph build.
type setupPhases struct{ graphNS, restNS int64 }

// measureSetup runs a set-up setupRepeats times and records the median of
// their raw times (setup_s is derived from it once the run's kernel median
// is known, see finish) and of their calibrated phases: the graph build
// as setup.graph_ref_ms, the rest as restMetric. once must start from a
// settled heap and reports whether its outcome verified; an error ends
// the run.
func (b *bench) measureSetup(restMetric string, once func() (setupPhases, bool, error)) error {
	var raw, graphRef, restRef []float64
	for r := 0; r < setupRepeats; r++ {
		kb := b.kernel()
		ph, ok, err := once()
		runtime.GC()
		ka := b.kernel()
		b.tally(ok)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		scale := opSample{kBefore: kb, kAfter: ka}.scale()
		raw = append(raw, float64(ph.graphNS+ph.restNS))
		graphRef = append(graphRef, float64(ph.graphNS)*scale)
		restRef = append(restRef, float64(ph.restNS)*scale)
	}
	fmt.Fprintf(b.out, "set-up repeats, raw s: %s\n", fmtSeconds(raw))
	b.setupNS = median(raw)
	b.set("setup.graph_ref_ms", median(graphRef)/1e6, "ref-ms")
	b.set(restMetric, median(restRef)/1e6, "ref-ms")
	return nil
}

// verifySet is the benchmark's own verifier: inSet must be a maximal
// independent set of g.
func (b *bench) verifySet(g *energymis.Graph, inSet []bool) error {
	if b.tamper != nil {
		b.tamper(inSet)
	}
	return energymis.Check(g, inSet)
}

// tally records one attempted op.
func (b *bench) tally(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// finish adds the metrics every workload reports from the tally and the
// process, fills per-layer metrics the workload did not exercise with 0,
// and returns the result line.
func (b *bench) finish() (result, error) {
	// setup_s is the median raw set-up scaled by P_ref over the run's
	// median kernel time: a whole-run factor adds no per-set-up noise and
	// keeps a shift in host speed between runs out of the number.
	b.set("setup_s", runRefNS(b.setupNS, b.kernelNS)/1e9, "s")
	names := endToEndMetrics
	if b.trace {
		names = perLayerMetrics()
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		b.set("peak_rss_mb", rss, "MB")
		b.set("ok_frac", float64(b.attempted-b.failed)/float64(max(b.attempted, 1)), "frac")
	}
	out := map[string]metric{}
	for _, m := range names {
		v, ok := b.metrics[m.name]
		if !ok {
			if !b.trace {
				return result{}, fmt.Errorf("metric %s was not measured", m.name)
			}
			v = metric{0, m.unit}
		}
		if v.Unit != m.unit {
			return result{}, fmt.Errorf("metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
		}
		out[m.name] = v
	}
	return result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   out,
	}, nil
}

// settleHeap brings the heap to the same state before each set-up:
// collected, with free memory returned to the OS.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("misbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: static-sparse, static-dense or dynamic-churn")
	seed := fs.Uint64("seed", 1, "workload seed: graph, op seeds and update stream")
	seconds := fs.Float64("seconds", 10, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 || *seconds > 120 {
		return fmt.Errorf("-seconds must be in (0, 120], got %g", *seconds)
	}
	b := newBench(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stdout)
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d gomaxprocs %d\n",
		*name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	if err := runner(b); err != nil {
		return err
	}
	res, err := b.finish()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "misbench:", err)
		os.Exit(1)
	}
}
