package avgenergy

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/sim"
)

// TestSlotBatchMatchesLegacy is the differential gate of the batch port of
// stage B: on every graph, slot/burst shape, seed and worker count the
// batch automaton must agree with the per-node slotMachine on the set and
// on the whole sim.Result.
func TestSlotBatchMatchesLegacy(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", graph.GNP(600, 10.0/600, 3)},
		{"udg", graph.RandomGeometric(500, 0.07, 5)},
		{"ba", graph.BarabasiAlbert(500, 4, 7)},
		{"star", graph.Star(90)},
		{"edgeless", graph.NewBuilder(40).Build()},
	}
	shapes := []struct{ k, burst int }{
		{1, 1},
		{3, 2},
		{9, 14}, // the DefaultParams shape at n ≈ 16k
	}
	for _, tc := range graphs {
		for _, sh := range shapes {
			for seed := uint64(1); seed <= 2; seed++ {
				ref, err := runSlottedLegacy(tc.g, sh.k, sh.burst, sim.Config{Seed: seed})
				if err != nil {
					t.Fatalf("%s k=%d burst=%d seed=%d legacy: %v", tc.name, sh.k, sh.burst, seed, err)
				}
				for _, w := range []int{1, 2, 8} {
					label := fmt.Sprintf("%s k=%d burst=%d seed=%d workers=%d", tc.name, sh.k, sh.burst, seed, w)
					got, err := runSlotted(tc.g, sh.k, sh.burst, sim.Config{Seed: seed, Workers: w})
					if err != nil {
						t.Fatalf("%s batch: %v", label, err)
					}
					if !slices.Equal(got.inSet, ref.inSet) {
						t.Fatalf("%s: InSet differs from legacy", label)
					}
					if !reflect.DeepEqual(got.res, ref.res) {
						t.Fatalf("%s: Result differs\n legacy: %+v\n batch:  %+v", label, ref.res, got.res)
					}
					if got.rounds != ref.rounds {
						t.Fatalf("%s: rounds %d, legacy %d", label, got.rounds, ref.rounds)
					}
				}
			}
		}
	}
}
