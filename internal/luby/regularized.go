package luby

import (
	"fmt"
	"math"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/rng"
	"github.com/energymis/energymis/internal/sim"
)

// Regularized Luby is the slowed-down variant the paper's Section 2.1
// builds on, run here in its basic full-MIS form (without the one-shot
// marking restriction of Phase I): iteration i marks every undecided node
// with probability 2^i/(damp·Δ) for c·log n rounds, so that after
// iteration i the maximum undecided degree is Δ/2^i w.h.p.; after
// ⌈log Δ⌉ iterations all remaining nodes are isolated and join. Nodes may
// be marked many times, so every undecided node must stay awake —
// the energy blow-up that motivates Phase I's modifications (ablation A1).

// RegularizedParams are the constants of the basic regularized Luby.
type RegularizedParams struct {
	RoundsPerIterC float64 // c in "⌈c·log2 n⌉ rounds per iteration"
	MarkDamp       float64 // the 10 in 2^i/(10Δ)
}

// DefaultRegularizedParams returns the paper's structure with a practical
// round multiplier.
func DefaultRegularizedParams() RegularizedParams {
	return RegularizedParams{RoundsPerIterC: 1, MarkDamp: 10}
}

// regPlan is the schedule both forms of the automaton share: logical
// round k belongs to iteration k/rpi, and rounds k >= T run the epilogue.
type regPlan struct {
	p    RegularizedParams
	rpi  int // rounds per iteration
	T    int // total logical rounds
	dMax int
}

func newRegPlan(g *graph.Graph, p RegularizedParams) regPlan {
	dMax := g.MaxDegree()
	if dMax < 1 {
		dMax = 1
	}
	rpi := int(math.Ceil(p.RoundsPerIterC * math.Log2(math.Max(2, float64(g.N())))))
	iters := int(math.Ceil(math.Log2(float64(dMax)))) + 1
	if iters < 1 {
		iters = 1
	}
	return regPlan{p: p, rpi: rpi, T: iters * rpi, dMax: dMax}
}

// prob is the marking probability 2^i/(damp·Δ) of logical round k, capped
// at 1.
func (pl *regPlan) prob(k int) float64 {
	i := k / pl.rpi
	p := math.Pow(2, float64(i)) / (pl.p.MarkDamp * float64(pl.dMax))
	if p > 1 {
		p = 1
	}
	return p
}

// regMachine is the per-node automaton. Logical round k occupies engine
// rounds 2k (mark + conflict) and 2k+1 (join notification).
type regMachine struct {
	*regPlan
	env *sim.Env

	marked  bool
	decided bool
	InMIS   bool
}

var _ sim.Machine = (*regMachine)(nil)

func (m *regMachine) Init(env *sim.Env) int {
	m.env = env
	return 0
}

func (m *regMachine) Compose(round int, out *sim.Outbox) {
	k, sub := round/2, round%2
	if m.decided {
		return
	}
	if k >= m.T {
		// Epilogue (w.h.p. unreached): greedy by identifier among the
		// leftover undecided nodes, so the output is always an MIS.
		if sub == 0 {
			out.Broadcast(sim.Msg{Kind: kindMark, A: uint64(m.env.Node), Bits: int32(bitsFor(m.env.N))})
		} else if m.marked {
			m.InMIS = true
			m.decided = true
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
		return
	}
	if sub == 0 {
		m.marked = m.env.Rand.Bernoulli(m.prob(k))
		if m.marked {
			out.Broadcast(sim.Msg{Kind: kindMark, Bits: 1})
		}
		return
	}
	if m.marked {
		// No marked neighbor seen: join and announce.
		m.InMIS = true
		m.decided = true
		out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
	}
}

func (m *regMachine) Deliver(round int, inbox []sim.Msg) int {
	k, sub := round/2, round%2
	if sub == 0 {
		if k >= m.T {
			// Epilogue: join next sub-round iff no undecided neighbor has
			// a larger identifier.
			m.marked = true
			for _, msg := range inbox {
				if msg.Kind == kindMark && int(msg.A) > m.env.Node {
					m.marked = false
					break
				}
			}
		} else if m.marked {
			for _, msg := range inbox {
				if msg.Kind == kindMark {
					m.marked = false
					break
				}
			}
		}
		return round + 1
	}
	for _, msg := range inbox {
		if msg.Kind == kindJoin && !m.InMIS {
			m.decided = true
		}
	}
	if m.decided {
		return sim.Never
	}
	return round + 1
}

// regBatch is the struct-of-arrays form of regMachine: the same state
// transitions, messages and random draws over flat per-node arrays, driven
// by the batch runtime. The marking probability depends only on the round,
// so it is computed once per ComposeAll call rather than once per node.
type regBatch struct {
	regPlan
	n        int
	markBits int32
	flags    []uint8 // fDecided | fMarked | fInMIS
	rands    []rng.Stream
}

var _ sim.BatchMachine = (*regBatch)(nil)

func newRegBatch(g *graph.Graph, p RegularizedParams) *regBatch {
	return &regBatch{regPlan: newRegPlan(g, p), n: g.N()}
}

// InitAll implements sim.BatchMachine: every node wakes in round 0.
func (b *regBatch) InitAll(env *sim.BatchEnv) []int {
	b.markBits = int32(bitsFor(env.N))
	b.flags = make([]uint8, b.n)
	b.rands = make([]rng.Stream, b.n)
	for v := range b.rands {
		b.rands[v] = rng.ForNode(env.Seed, v)
	}
	return make([]int, b.n)
}

// ComposeAll implements sim.BatchMachine.
func (b *regBatch) ComposeAll(round int, awake []int32, out *sim.BatchOutbox) {
	k, sub := round/2, round%2
	switch {
	case sub == 1:
		for _, v := range awake {
			if f := b.flags[v]; f&fMarked != 0 && f&fDecided == 0 {
				b.flags[v] = f | fInMIS | fDecided
				out.Broadcast(v, sim.Msg{Kind: kindJoin, Bits: 1})
			}
		}
	case k >= b.T:
		// Epilogue (w.h.p. unreached): every undecided node announces its
		// identifier; greedy by identifier decides next sub-round.
		for _, v := range awake {
			if b.flags[v]&fDecided == 0 {
				out.Broadcast(v, sim.Msg{Kind: kindMark, A: uint64(v), Bits: b.markBits})
			}
		}
	default:
		p := b.prob(k)
		for _, v := range awake {
			f := b.flags[v]
			if f&fDecided != 0 {
				continue
			}
			if b.rands[v].Bernoulli(p) {
				b.flags[v] = f | fMarked
				out.Broadcast(v, sim.Msg{Kind: kindMark, Bits: 1})
			} else {
				b.flags[v] = f &^ fMarked
			}
		}
	}
}

// DeliverAll implements sim.BatchMachine.
func (b *regBatch) DeliverAll(round int, awake []int32, in sim.Inboxes, next []int) {
	k, sub := round/2, round%2
	switch {
	case sub == 1:
		for i, v := range awake {
			f := b.flags[v]
			for _, msg := range in.At(i) {
				if msg.Kind == kindJoin && f&fInMIS == 0 {
					f |= fDecided
				}
			}
			b.flags[v] = f
			if f&fDecided != 0 {
				next[i] = sim.Never
			} else {
				next[i] = round + 1
			}
		}
		return
	case k >= b.T:
		// Join next sub-round iff no undecided neighbor has a larger
		// identifier.
		for i, v := range awake {
			f := b.flags[v] | fMarked
			for _, msg := range in.At(i) {
				if msg.Kind == kindMark && msg.A > uint64(v) {
					f &^= fMarked
					break
				}
			}
			b.flags[v] = f
		}
	default:
		for i, v := range awake {
			if b.flags[v]&fMarked == 0 {
				continue
			}
			for _, msg := range in.At(i) {
				if msg.Kind == kindMark {
					b.flags[v] &^= fMarked
					break
				}
			}
		}
	}
	for i := range awake {
		next[i] = round + 1
	}
}

func (b *regBatch) inSet() []bool {
	out := make([]bool, b.n)
	for v := range out {
		out[v] = b.flags[v]&fInMIS != 0
	}
	return out
}

// RunRegularized executes basic regularized Luby on g through the batch
// runtime. It is byte-identical to RunRegularizedLegacy for every (graph,
// params, Config).
func RunRegularized(g *graph.Graph, p RegularizedParams, cfg sim.Config) ([]bool, *sim.Result, error) {
	b := newRegBatch(g, p)
	res, err := sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby regularized: %w", err)
	}
	return b.inSet(), res, nil
}

// RunRegularizedLegacy executes the per-node regMachine on the per-node
// engine: the reference the batch path is differentially tested against.
func RunRegularizedLegacy(g *graph.Graph, p RegularizedParams, cfg sim.Config) ([]bool, *sim.Result, error) {
	plan := newRegPlan(g, p)
	machines := make([]sim.Machine, g.N())
	nodes := make([]regMachine, g.N())
	for v := range machines {
		nodes[v].regPlan = &plan
		machines[v] = &nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("luby regularized: %w", err)
	}
	inSet := make([]bool, g.N())
	for v := range nodes {
		inSet[v] = nodes[v].InMIS
	}
	return inSet, res, nil
}
