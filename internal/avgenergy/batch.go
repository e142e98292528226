package avgenergy

import (
	"math"
	"slices"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
)

// Per-node flag bits of the batch stage-B automaton.
const (
	sJoined = 1 << iota
	sInactive
	sMarked
)

// slotBatch is the struct-of-arrays form of slotMachine: the same state
// transitions, messages and random draws (Intn(k) at init, then one
// Bernoulli per burst), driven by the batch runtime. A node's wake list
// depends only on its slot, so the k lists are built once per run and
// shared; each node keeps its slot and a cursor into its slot's list.
type slotBatch struct {
	g        *graph.Graph
	k, wl    int       // slots; engine rounds per slot window
	wake     [][]int32 // wake[s]: ascending awake rounds of a slot-s node
	markBits int32

	slot   []int32
	cursor []int32 // index of the node's current round in wake[slot]
	flags  []uint8 // sJoined | sInactive | sMarked
	rands  []rng.Stream
}

var _ sim.BatchMachine = (*slotBatch)(nil)

func newSlotBatch(g *graph.Graph, k, burst int) *slotBatch {
	return &slotBatch{g: g, k: k, wl: 3 * burst, wake: slotWakeLists(k, 3*burst)}
}

// slotWakeLists returns, per slot s, the sorted rounds a slot-s node is
// awake: its whole own window, plus the announcement round (the last
// engine round) of every window in the schedule set S_s.
func slotWakeLists(k, wl int) [][]int32 {
	wake := make([][]int32, k)
	for s := range wake {
		set := schedule.Set(k, s)
		list := make([]int32, 0, wl+len(set))
		for r := 0; r < wl; r++ {
			list = append(list, int32(s*wl+r))
		}
		for _, l := range set {
			list = append(list, int32(l*wl+wl-1))
		}
		slices.Sort(list)
		wake[s] = slices.Compact(list)
	}
	return wake
}

// InitAll implements sim.BatchMachine.
func (b *slotBatch) InitAll(env *sim.BatchEnv) []int {
	n := env.N
	b.markBits = int32(bits(n))
	b.slot = make([]int32, n)
	b.cursor = make([]int32, n)
	b.flags = make([]uint8, n)
	b.rands = make([]rng.Stream, n)
	first := make([]int, n)
	for v := range first {
		b.rands[v] = rng.ForNode(env.Seed, v)
		s := b.rands[v].Intn(b.k)
		b.slot[v] = int32(s)
		first[v] = int(b.wake[s][0])
	}
	return first
}

// ComposeAll implements sim.BatchMachine.
func (b *slotBatch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	w, o := int32(round/b.wl), round%b.wl
	if o == b.wl-1 {
		// Announcement sub-round shared across windows.
		for _, v := range awake {
			if b.flags[v]&sJoined != 0 {
				out.Broadcast(v, sim.Msg{Kind: kindInMIS, Bits: 1})
			}
		}
		return
	}
	for _, v := range awake {
		f := b.flags[v]
		if b.slot[v] != w || f&(sInactive|sJoined) != 0 {
			continue
		}
		switch o % 3 {
		case 0:
			// Marking targets the expected cohort degree deg/k, as in
			// slotMachine.Compose.
			deg := b.g.Degree(int(v))
			p := 1.0
			if deg > 0 {
				p = math.Min(0.5, float64(b.k)/(2*float64(deg)))
			}
			if b.rands[v].Bernoulli(p) {
				b.flags[v] = f | sMarked
				out.Broadcast(v, sim.Msg{Kind: kindMark, A: uint64(deg), Bits: b.markBits})
			} else {
				b.flags[v] = f &^ sMarked
			}
		case 1:
			if f&sMarked != 0 {
				b.flags[v] = f | sJoined
				out.Broadcast(v, sim.Msg{Kind: kindJoin, Bits: 1})
			}
		}
	}
}

// DeliverAll implements sim.BatchMachine.
func (b *slotBatch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	w, o := int32(round/b.wl), round%b.wl
	for i, v := range awake {
		f := b.flags[v]
		switch {
		case o == b.wl-1:
			if f&sJoined == 0 && w < b.slot[v] {
				for _, msg := range in.At(i) {
					if msg.Kind == kindInMIS {
						f |= sInactive
					}
				}
			}
		case w == b.slot[v] && o%3 == 0:
			if f&sMarked != 0 {
				deg := uint64(b.g.Degree(int(v)))
				for _, msg := range in.At(i) {
					if msg.Kind == kindMark && (msg.A > deg || (msg.A == deg && msg.From > v)) {
						f &^= sMarked
						break
					}
				}
			}
		case w == b.slot[v] && o%3 == 1:
			for _, msg := range in.At(i) {
				if msg.Kind == kindJoin && f&sJoined == 0 {
					f |= sInactive
				}
			}
			f &^= sMarked
		}
		b.flags[v] = f
		if f&sInactive != 0 {
			// Dominated: nothing left to send or learn.
			next[i] = sim.Never
			continue
		}
		list := b.wake[b.slot[v]]
		c := b.cursor[v] + 1
		if f&sJoined != 0 {
			// Only announcement rounds remain relevant.
			for int(c) < len(list) && int(list[c])%b.wl != b.wl-1 {
				c++
			}
		}
		b.cursor[v] = c
		if int(c) >= len(list) {
			next[i] = sim.Never
		} else {
			next[i] = int(list[c])
		}
	}
}

func (b *slotBatch) inSet() []bool {
	out := make([]bool, len(b.flags))
	for v, f := range b.flags {
		out[v] = f&sJoined != 0
	}
	return out
}
