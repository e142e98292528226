package luby

import (
	"fmt"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

func TestRegularizedComputesMIS(t *testing.T) {
	cases := []*graph.Graph{
		graph.GNP(600, 0.02, 1),
		graph.GNP(400, 0.2, 2),
		graph.Complete(100),
		graph.Star(200),
		graph.Cycle(99),
		graph.RandomTree(300, 3),
		graph.NewBuilder(30).Build(),
		graph.Path(1),
	}
	for gi, g := range cases {
		for seed := uint64(0); seed < 3; seed++ {
			inSet, _, err := RunRegularized(g, DefaultRegularizedParams(), sim.Config{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Check(g, inSet); err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
		}
	}
}

func TestRegularizedEnergyIsHigh(t *testing.T) {
	// The ablation's point (A1): without one-shot marking, undecided
	// nodes stay awake through the iteration schedule, so energy tracks
	// Θ(log Δ · log n) rather than Phase I's O(log log n).
	g := graph.GNP(1500, 0.3, 5)
	inSet, res, err := RunRegularized(g, DefaultRegularizedParams(), sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Check(g, inSet); err != nil {
		t.Fatal(err)
	}
	if res.MaxAwake() < 20 {
		t.Fatalf("regularized Luby MaxAwake = %d; expected the always-awake blow-up", res.MaxAwake())
	}
}

func TestRegularizedDeterministic(t *testing.T) {
	g := graph.GNP(300, 0.05, 7)
	a, _, err := RunRegularized(g, DefaultRegularizedParams(), sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RunRegularized(g, DefaultRegularizedParams(), sim.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("node %d differs", v)
		}
	}
}

func TestRegularizedCongest(t *testing.T) {
	g := graph.GNP(800, 0.1, 11)
	_, res, err := RunRegularized(g, DefaultRegularizedParams(), sim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %d (bitsMax=%d)", res.Violations, res.BitsMax)
	}
}

// TestRegBatchMatchesLegacy is the differential gate of the batch port of
// regularized Luby: on every graph, seed, parameter set and worker count
// the batch automaton must agree with the per-node regMachine on the set
// and on the whole sim.Result.
func TestRegBatchMatchesLegacy(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(500, 12.0/500, 3)},
		{"udg", graph.RandomGeometric(400, 0.08, 5)},
		{"ba", graph.BarabasiAlbert(400, 4, 7)},
		{"star", graph.Star(90)},
		{"edgeless", graph.NewBuilder(40).Build()},
	}
	params := []struct {
		name string
		p    RegularizedParams
	}{
		{"default", DefaultRegularizedParams()},
		// One round per iteration at a heavily damped probability leaves
		// nodes undecided after T rounds, forcing the greedy-by-ID
		// epilogue (the A = node mark path).
		{"epilogue", RegularizedParams{RoundsPerIterC: 0.01, MarkDamp: 1000}},
	}
	for _, tc := range graphs {
		for _, pc := range params {
			plan := newRegPlan(tc.g, pc.p)
			for seed := uint64(1); seed <= 2; seed++ {
				refSet, refRes, err := RunRegularizedLegacy(tc.g, pc.p, sim.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s/%s seed=%d legacy: %v", tc.name, pc.name, seed, err)
				}
				if pc.name == "epilogue" && tc.g.M() > 0 && refRes.Rounds <= 2*plan.T {
					t.Fatalf("%s seed=%d: run ended in round %d, before the epilogue (round %d)",
						tc.name, seed, refRes.Rounds, 2*plan.T)
				}
				for _, w := range []int{1, 2, 8} {
					set, res, err := RunRegularized(tc.g, pc.p, sim.Config{Seed: seed, Workers: w})
					if err != nil {
						t.Fatalf("%s/%s seed=%d workers=%d batch: %v", tc.name, pc.name, seed, w, err)
					}
					assertSameRun(t, fmt.Sprintf("%s/%s seed=%d workers=%d", tc.name, pc.name, seed, w),
						refSet, refRes, set, res)
					if err := verify.Check(tc.g, set); err != nil {
						t.Fatalf("%s/%s seed=%d workers=%d: %v", tc.name, pc.name, seed, w, err)
					}
				}
			}
		}
	}
}
