package avgenergy

import (
	"fmt"
	"math"
	"sort"

	"github.com/energymis/energymis/internal/graph"
	"github.com/energymis/energymis/internal/phase1"
	"github.com/energymis/energymis/internal/schedule"
	"github.com/energymis/energymis/internal/sim"
	"github.com/energymis/energymis/internal/verify"
)

// Params configures the Phase I-II pipeline.
type Params struct {
	// Stage A: rounds per iteration = ceil(RoundsAC·log2 log2 n) + 2;
	// iterations run until the degree bound falls to DegTarget(n).
	RoundsAC float64
	// DegTargetC scales the stage-A degree target
	// max(MinDegTarget, ceil(DegTargetC·(log2 log2 n)²)).
	DegTargetC   float64
	MinDegTarget int
	MarkDamp     float64 // as in phase1

	// Stage B: slots k = ceil(SlotsC·log2 log2 n) + 1; burst length =
	// ceil(BurstC·log2(degTarget)) + 2 logical rounds.
	SlotsC float64
	BurstC float64
}

// DefaultParams returns practical constants.
func DefaultParams() Params {
	return Params{
		RoundsAC:     3,
		DegTargetC:   1,
		MinDegTarget: 8,
		MarkDamp:     10,
		SlotsC:       2,
		BurstC:       3,
	}
}

// DegTarget returns the stage-A degree target for an n-node graph.
func (p Params) DegTarget(n int) int {
	ll := math.Log2(math.Max(2, math.Log2(math.Max(4, float64(n)))))
	t := int(math.Ceil(p.DegTargetC * ll * ll))
	if t < p.MinDegTarget {
		t = p.MinDegTarget
	}
	return t
}

// Outcome of the Phase I-II pipeline.
type Outcome struct {
	InSet     []bool // independent set found across both stages
	Remaining []int  // nodes still undecided (to hand to Phases II/III)
	Failed    int    // stage-A nodes classified into F
	StageARes *sim.Result
	StageBRes *sim.Result
	// StageBOrig maps stage-B-local node indices to indices of the input
	// graph (for energy accounting).
	StageBOrig []int32
	StageBLen  int // engine rounds of stage B
}

// Run executes Phase I-II on g (typically the residual left by Phase I,
// with poly(log n) maximum degree).
func Run(g *graph.Graph, p Params, cfg sim.Config) (*Outcome, error) {
	n := g.N()
	out := &Outcome{InSet: make([]bool, n)}
	if n == 0 {
		return out, nil
	}
	target := p.DegTarget(n)
	loglog := math.Log2(math.Max(2, math.Log2(math.Max(4, float64(n)))))

	// --- Stage A: regularized Luby down to the poly(log log n) target ---
	maxDeg := g.MaxDegree()
	iters := 0
	if maxDeg > target {
		iters = int(math.Ceil(math.Log2(float64(maxDeg) / float64(target))))
	}
	rpi := int(math.Ceil(p.RoundsAC*loglog)) + 2
	plan := phase1.PlanExplicit(iters, rpi, maxDeg)
	p1 := phase1.Params{MarkDamp: p.MarkDamp}
	aOut, err := phase1.RunWithPlan(g, plan, p1, cfg)
	if err != nil {
		return nil, fmt.Errorf("avgenergy stage A: %w", err)
	}
	out.StageARes = aOut.Res
	for v, in := range aOut.InSet {
		out.InSet[v] = in
	}

	// Boundary classification: residual nodes whose residual degree still
	// exceeds the target form the failed set F (deferred to later phases,
	// like the paper's F). Residual degrees are counted against a
	// membership mask.
	inRes := make([]bool, n)
	for _, v := range aOut.Residual {
		inRes[v] = true
	}
	var aNodes []int
	for _, v := range aOut.Residual {
		d := 0
		for _, u := range g.Neighbors(v) {
			if inRes[u] {
				d++
			}
		}
		if d > target {
			out.Failed++
		} else {
			aNodes = append(aNodes, v)
		}
	}

	// --- Stage B: slot-scheduled Luby bursts on the A-nodes ---
	bSub := graph.InducedSubgraph(g, aNodes)
	k := int(math.Ceil(p.SlotsC*loglog)) + 1
	burst := int(math.Ceil(p.BurstC*math.Log2(float64(target+2)))) + 2
	bOut, err := runSlotted(bSub.Graph, k, burst, cfg)
	if err != nil {
		return nil, fmt.Errorf("avgenergy stage B: %w", err)
	}
	out.StageBRes = bOut.res
	out.StageBOrig = bSub.Orig
	out.StageBLen = bOut.rounds
	for v, in := range bOut.inSet {
		if in {
			out.InSet[bSub.Orig[v]] = true
		}
	}

	// Remaining = failed ∪ stage-B leftovers, minus anything dominated.
	rem := verify.Residual(g, out.InSet)
	out.Remaining = rem
	return out, nil
}

// --- slot-scheduled Luby (Lemma 4.5 stand-in) ---

const (
	kindMark  = 71
	kindJoin  = 72
	kindInMIS = 73
)

type slotOutcome struct {
	inSet  []bool
	res    *sim.Result
	rounds int
}

// slotMachine runs one Luby burst during its own slot window and listens
// for join announcements at the Lemma 2.5 schedule over slots.
type slotMachine struct {
	env   *sim.Env
	k     int
	burst int // logical rounds per window; each logical round = 3 engine rounds

	slot     int
	wake     []int
	wi       int
	joined   bool
	inactive bool
	marked   bool
	deg      int
}

var _ sim.Machine = (*slotMachine)(nil)

// windowLen returns engine rounds per slot window.
func (m *slotMachine) windowLen() int { return 3 * m.burst }

// Init implements sim.Machine.
func (m *slotMachine) Init(env *sim.Env) int {
	m.env = env
	m.deg = env.Degree
	m.slot = env.Rand.Intn(m.k)
	wl := m.windowLen()
	seen := map[int]bool{}
	// Whole own window.
	for r := 0; r < wl; r++ {
		seen[m.slot*wl+r] = true
	}
	// Announcement rounds: the last engine round of every window in the
	// schedule set S_slot.
	for _, l := range schedule.Set(m.k, m.slot) {
		seen[l*wl+wl-1] = true
	}
	m.wake = make([]int, 0, len(seen))
	for r := range seen {
		m.wake = append(m.wake, r)
	}
	sort.Ints(m.wake)
	return m.wake[0]
}

// Compose implements sim.Machine.
func (m *slotMachine) Compose(round int, out *sim.Outbox) {
	wl := m.windowLen()
	w, o := round/wl, round%wl
	if o == wl-1 {
		// Announcement sub-round shared across windows.
		if m.joined {
			out.Broadcast(sim.Msg{Kind: kindInMIS, Bits: 1})
		}
		return
	}
	if w != m.slot || m.inactive || m.joined {
		return
	}
	switch o % 3 {
	case 0:
		// Marking targets the expected cohort degree deg/k, so cohort
		// contention matches classic Luby's 1/(2 deg) regime.
		p := 1.0
		if m.deg > 0 {
			p = math.Min(0.5, float64(m.k)/(2*float64(m.deg)))
		}
		m.marked = m.env.Rand.Bernoulli(p)
		if m.marked {
			out.Broadcast(sim.Msg{Kind: kindMark, A: uint64(m.deg), Bits: int32(bits(m.env.N))})
		}
	case 1:
		if m.marked {
			m.joined = true
			out.Broadcast(sim.Msg{Kind: kindJoin, Bits: 1})
		}
	}
}

// Deliver implements sim.Machine.
func (m *slotMachine) Deliver(round int, inbox []sim.Msg) int {
	wl := m.windowLen()
	w, o := round/wl, round%wl
	switch {
	case o == wl-1:
		if !m.joined && w < m.slot {
			for _, msg := range inbox {
				if msg.Kind == kindInMIS {
					m.inactive = true
				}
			}
		}
	case w == m.slot && o%3 == 0:
		if m.marked {
			for _, msg := range inbox {
				if msg.Kind != kindMark {
					continue
				}
				d := int(msg.A)
				if d > m.deg || (d == m.deg && msg.From > int32(m.env.Node)) {
					m.marked = false
					break
				}
			}
		}
	case w == m.slot && o%3 == 1:
		for _, msg := range inbox {
			if msg.Kind == kindJoin && !m.joined {
				m.inactive = true
			}
		}
		m.marked = false
	}
	if m.inactive {
		// Dominated: nothing left to send or learn.
		return sim.Never
	}
	m.wi++
	if m.joined {
		// Only announcement rounds remain relevant.
		for m.wi < len(m.wake) && m.wake[m.wi]%wl != wl-1 {
			m.wi++
		}
	}
	if m.wi >= len(m.wake) {
		return sim.Never
	}
	return m.wake[m.wi]
}

func bits(n int) int {
	b := 1
	for p := 1; p < n; p <<= 1 {
		b++
	}
	return b
}

// slotSeedMask derives stage B's engine seed from the run's seed.
const slotSeedMask = 0xA5A5A5A5

// runSlotted executes stage B on g with the batch automaton.
func runSlotted(g *graph.Graph, k, burst int, cfg sim.Config) (*slotOutcome, error) {
	cfg.Seed ^= slotSeedMask
	b := newSlotBatch(g, k, burst)
	res, err := sim.RunBatch(g, b, cfg)
	if err != nil {
		return nil, err
	}
	return &slotOutcome{inSet: b.inSet(), res: res, rounds: k * 3 * burst}, nil
}

// runSlottedLegacy executes stage B with the per-node slotMachine on the
// per-node engine: the reference the batch path is differentially tested
// against.
func runSlottedLegacy(g *graph.Graph, k, burst int, cfg sim.Config) (*slotOutcome, error) {
	cfg.Seed ^= slotSeedMask
	machines := make([]sim.Machine, g.N())
	nodes := make([]slotMachine, g.N())
	for v := range machines {
		nodes[v] = slotMachine{k: k, burst: burst}
		machines[v] = &nodes[v]
	}
	res, err := sim.Run(g, machines, cfg)
	if err != nil {
		return nil, err
	}
	out := &slotOutcome{inSet: make([]bool, g.N()), res: res, rounds: k * 3 * burst}
	for v := range nodes {
		out.inSet[v] = nodes[v].joined
	}
	return out, nil
}
