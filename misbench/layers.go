package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"

	"github.com/energymis/energymis/internal/obs"
)

// runTrace is an in-memory tracer for one static run. Spans are keyed by
// their PhaseStart name: degreduce records "phase-i.<k>" ends under a
// single "phase-i" start, and every end and round until the next start
// belongs to the open span.
type runTrace struct {
	cur      string
	spanNS   map[string]int64 // wall inside each span
	spanEng  map[string]int64 // engine-round wall inside each span
	engineNS int64            // Σ Round.WallNS
	rounds   int64            // executed engine rounds
	awake    int64            // awake node-rounds in engine rounds
	msgs     int64
}

func newRunTrace() *runTrace {
	return &runTrace{spanNS: map[string]int64{}, spanEng: map[string]int64{}}
}

func (t *runTrace) reset() {
	clear(t.spanNS)
	clear(t.spanEng)
	*t = runTrace{spanNS: t.spanNS, spanEng: t.spanEng}
}

// spanKey maps a PhaseStart name to its metric key: Phase III retries
// fold into "phase-iii".
func spanKey(name string) string {
	if strings.HasPrefix(name, "phase-iii.") {
		return "phase-iii"
	}
	return name
}

// syncSpan reports whether the open span is a phase-boundary sync: one
// model round charged by the pipeline, not executed by an engine.
func (t *runTrace) syncSpan() bool { return strings.HasPrefix(t.cur, "sync") }

func (t *runTrace) PhaseStart(name string) { t.cur = spanKey(name) }

func (t *runTrace) Round(r obs.RoundStats) {
	if t.syncSpan() {
		return
	}
	t.engineNS += r.WallNS
	t.spanEng[t.cur] += r.WallNS
	t.rounds++
	t.awake += int64(r.Awake)
	t.msgs += r.MsgsSent
}

func (t *runTrace) PhaseEnd(p obs.PhaseStats) {
	if t.syncSpan() {
		return
	}
	t.spanNS[t.cur] += p.WallNS
}

// algoLayers accumulates one algorithm's traced time in reference ns,
// summed over traced ops.
type algoLayers struct {
	runNS     float64
	engineNS  float64
	spanNS    map[string]float64
	spanEngNS map[string]float64
	rounds    float64
	awake     float64
	msgs      float64
}

// add folds one traced run into the accumulator, scaled to reference time.
func (l *algoLayers) add(runNS int64, t *runTrace, scale float64) {
	if l.spanNS == nil {
		l.spanNS, l.spanEngNS = map[string]float64{}, map[string]float64{}
	}
	l.runNS += float64(runNS) * scale
	l.engineNS += float64(t.engineNS) * scale
	for s, ns := range t.spanNS {
		l.spanNS[s] += float64(ns) * scale
	}
	for s, ns := range t.spanEng {
		l.spanEngNS[s] += float64(ns) * scale
	}
	l.rounds += float64(t.rounds)
	l.awake += float64(t.awake)
	l.msgs += float64(t.msgs)
}

// spansNS is the wall covered by all spans.
func (l *algoLayers) spansNS() float64 {
	var s float64
	for _, ns := range l.spanNS {
		s += ns
	}
	return s
}

// goStats is a snapshot of the Go runtime's allocation and GC counters.
type goStats struct {
	allocs, bytes, gcs, pauseNS uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{m.Mallocs, m.TotalAlloc, uint64(m.NumGC), m.PauseTotalNs}
}

// goDelta sums runtime-counter deltas over the ops it brackets.
type goDelta struct {
	goStats
	ops int
}

func (d *goDelta) add(before, after goStats, ops int) {
	d.allocs += after.allocs - before.allocs
	d.bytes += after.bytes - before.bytes
	d.gcs += after.gcs - before.gcs
	d.pauseNS += after.pauseNS - before.pauseNS
	d.ops += ops
}

func (b *bench) setGoMetrics(d goDelta) {
	if d.ops == 0 {
		return
	}
	n := float64(d.ops)
	b.set("go.allocs_per_op", float64(d.allocs)/n, "count")
	b.set("go.alloc_bytes_per_op", float64(d.bytes)/n, "bytes")
	b.set("go.gc_cycles_per_op", float64(d.gcs)/n, "count")
	b.set("go.gc_pause_ms_per_op", float64(d.pauseNS)/n/1e6, "ms")
}

// share formats part as a percentage of whole.
func share(part, whole float64) string {
	if whole <= 0 {
		return "  -  "
	}
	return fmt.Sprintf("%5.1f%%", 100*part/whole)
}

// printStaticSplit prints the per-layer table of a traced static run:
// per algorithm, run time split into engine rounds, protocol self time
// (span − engine) and glue (run − spans, the unattributed remainder).
func printStaticSplit(w io.Writer, names []string, layers []algoLayers, ops int, overhead float64) {
	fmt.Fprintf(w, "per-layer split, ref-ms per op over %d traced ops (tracing overhead %.3fx)\n", ops, overhead)
	fmt.Fprintf(w, "%-18s %10s %10s %8s %10s %8s %10s %8s\n",
		"algorithm", "run", "engine", "", "protocol", "", "glue", "")
	n := float64(ops)
	for i, name := range names {
		l := layers[i]
		run, eng := l.runNS/n/1e6, l.engineNS/n/1e6
		spans := l.spansNS() / n / 1e6
		self := spans - eng
		glue := run - spans
		fmt.Fprintf(w, "%-18s %10.3f %10.3f %8s %10.3f %8s %10.3f %8s\n",
			name, run, eng, share(eng, run), self, share(self, run), glue, share(glue, run))
		keys := make([]string, 0, len(l.spanNS))
		for s := range l.spanNS {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		for _, s := range keys {
			tot := l.spanNS[s] / n / 1e6
			fmt.Fprintf(w, "  %-16s span %9.3f %8s  self %9.3f\n",
				s, tot, share(tot, run), tot-l.spanEngNS[s]/n/1e6)
		}
	}
}
