package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// Naive map-and-sort references for the linear CSR builds: the fuzz and
// property targets below check Builder.Build and InducedSubgraph against
// them row by row.

// naiveBuildRows returns the sorted, deduplicated rows of the simple graph
// spanned by edges on n nodes (self-loops dropped).
func naiveBuildRows(n int, edges [][2]int) [][]int32 {
	set := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] != e[1] {
			set[[2]int{e[0], e[1]}] = true
			set[[2]int{e[1], e[0]}] = true
		}
	}
	rows := make([][]int32, n)
	for e := range set {
		rows[e[0]] = append(rows[e[0]], int32(e[1]))
	}
	for _, r := range rows {
		sort.Slice(r, func(i, j int) bool { return r[i] < r[j] })
	}
	return rows
}

// naiveInducedRows returns the sorted rows of g induced on keep, in keep's
// local numbering.
func naiveInducedRows(g *Graph, keep []int) [][]int32 {
	local := map[int]int{}
	for i, v := range keep {
		local[v] = i
	}
	rows := make([][]int32, len(keep))
	for i, v := range keep {
		for _, u := range g.Neighbors(v) {
			if j, ok := local[int(u)]; ok {
				rows[i] = append(rows[i], int32(j))
			}
		}
		r := rows[i]
		sort.Slice(r, func(a, b int) bool { return r[a] < r[b] })
	}
	return rows
}

func assertRows(t *testing.T, label string, g *Graph, want [][]int32) {
	t.Helper()
	if g.N() != len(want) {
		t.Fatalf("%s: N = %d, want %d", label, g.N(), len(want))
	}
	arcs := 0
	for v, r := range want {
		if got := g.Neighbors(v); !slices.Equal(got, r) {
			t.Fatalf("%s: row %d = %v, want %v", label, v, got, r)
		}
		arcs += len(r)
	}
	if g.Arcs() != arcs || g.M() != arcs/2 {
		t.Fatalf("%s: Arcs = %d, M = %d; want %d arcs", label, g.Arcs(), g.M(), arcs)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// checkBuild builds edges twice from one builder and compares both graphs
// with the naive reference (Build must leave the builder reusable).
func checkBuild(t *testing.T, n int, edges [][2]int) {
	t.Helper()
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	want := naiveBuildRows(n, edges)
	assertRows(t, "first Build", b.Build(), want)
	assertRows(t, "second Build", b.Build(), want)
}

func checkInduced(t *testing.T, g *Graph, keep []int) {
	t.Helper()
	sub := InducedSubgraph(g, keep)
	label := fmt.Sprintf("keep %v", keep)
	assertRows(t, label, sub.Graph, naiveInducedRows(g, keep))
	for i, v := range keep {
		if sub.Orig[i] != int32(v) {
			t.Fatalf("%s: Orig[%d] = %d, want %d", label, i, sub.Orig[i], v)
		}
	}
}

// decodeEdges reads byte pairs as edges on n nodes; pairs repeat, reverse
// and loop as often as the input does.
func decodeEdges(n int, data []byte) [][2]int {
	if n == 0 {
		return nil
	}
	edges := make([][2]int, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		edges = append(edges, [2]int{int(data[i]) % n, int(data[i+1]) % n})
	}
	return edges
}

// decodeKeep reads bytes as an unsorted list of distinct nodes of [0, n).
func decodeKeep(n int, data []byte) []int {
	seen := make([]bool, n)
	var keep []int
	for _, b := range data {
		if v := int(b) % n; !seen[v] {
			seen[v] = true
			keep = append(keep, v)
		}
	}
	return keep
}

func FuzzBuild(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(5), []byte{})                             // no edges
	f.Add(uint8(4), []byte{0, 1, 1, 0, 0, 1, 2, 2, 3, 1}) // duplicate, reversed, self-loop
	f.Add(uint8(9), []byte{8, 0, 7, 0, 0, 8, 5, 5, 3, 4, 4, 3, 6, 2, 2, 6, 6, 2})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := int(nRaw % 64)
		checkBuild(t, n, decodeEdges(n, data))
	})
}

func FuzzInducedSubgraph(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, []byte{0, 1, 2, 4})
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, []byte{4, 2, 0, 1, 5}) // unsorted keep
	f.Add(uint8(8), []byte{}, []byte{7, 3, 1})                                         // no edges
	f.Add(uint8(5), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 3, 4}, []byte{})              // empty keep
	f.Fuzz(func(t *testing.T, nRaw uint8, edgeData, keepData []byte) {
		n := int(nRaw%64) + 1
		g := FromEdges(n, decodeEdges(n, edgeData))
		checkInduced(t, g, decodeKeep(n, keepData))
	})
}

// TestBuildsMatchNaiveRandom runs the fuzz checks on random multigraph
// edge lists and random unsorted keep sets larger than the seed corpus.
func TestBuildsMatchNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for it := 0; it < 200; it++ {
		n := r.Intn(300)
		edges := make([][2]int, r.Intn(4*n+1))
		for i := range edges {
			edges[i] = [2]int{r.Intn(n), r.Intn(n)}
			if i > 0 && r.Intn(4) == 0 {
				edges[i] = [2]int{edges[i-1][1], edges[i-1][0]} // reversed repeat
			}
		}
		checkBuild(t, n, edges)
		if n == 0 {
			continue
		}
		g := FromEdges(n, edges)
		keep := r.Perm(n)[:r.Intn(n+1)]
		checkInduced(t, g, keep)
		slices.Sort(keep)
		checkInduced(t, g, keep)
	}
}
