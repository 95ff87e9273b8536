package main

import (
	"fmt"

	"maskedspgemm/spgemm"
)

// A workload is one named set of (graph, variant) cases run in a fixed
// order. An op is one facade call (or, for trsv-iter, one chain of
// solves) on one case; a pass is one op for every case.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists, printed in
	// BENCHMARK.json and the README.
	why    string
	graphs []graphSpec
	// variants is the number of cases build makes per graph: 1, or 2 for
	// the workloads that run every graph with Fuse off ("staged") and on
	// ("fused").
	variants int
	// passes is the number of timed passes at the reference length
	// (-seconds = refSeconds); counts are fixed, not time-boxed, so that
	// operation and allocation counts repeat exactly from run to run.
	passes int
	// build makes the cases of one generated graph, reference answers
	// included.
	build func(graph string, g *spgemm.Matrix, adj adjacency) ([]caseInfo, error)
}

// refSeconds is the default -seconds, the run_seconds of BENCHMARK.json
// and the value the pass counts below are sized for; other values scale
// every count linearly, never below minTimedOps.
const (
	refSeconds  = 16
	minTimedOps = 100
)

// fullVerifier is an opCase whose complete check against the oracle is
// too dear for every op; verifyFull runs once per set-up, on the cold
// pass's result, in place of verify.
type fullVerifier interface {
	verifyFull() error
}

// opCase is one (graph, variant) of a workload after set-up: operands
// prepared, reference answer known.
type opCase interface {
	// run makes the timed facade call(s) and keeps the result.
	run(opts spgemm.Options) error
	// verify compares the kept result with the reference answer, cheaply,
	// and drops it; it runs outside every timed interval.
	verify() error
	// corrupt damages the kept result, so the test suite can prove that a
	// wrong answer is counted as a failed op.
	corrupt()
	// edges is the input size one op is credited with in medges_per_s.
	edges() int64
}

func graphsNamed(names ...string) []graphSpec {
	out := make([]graphSpec, len(names))
	for i, n := range names {
		out[i] = findGraph(n)
	}
	return out
}

var workloads = []workload{
	{
		name: "tc-skew",
		why:  "triangle counting on the four skewed graphs: 59-111 M FLOPs per op, so row kernels and accumulators do the work and planning none",
		graphs: graphsNamed("com-Orkut-sim", "hollywood-2009-sim",
			"com-LiveJournal-sim", "uk-2002-sim"),
		variants: 1,
		passes:   25,
		build:    newTCCase,
	},
	{
		name: "tc-band",
		why:  "triangle counting on banded and road graphs: few FLOPs per row, so tile claims, assembly and (cold) the plan are a visible share",
		graphs: graphsNamed("circuit5M-sim", "stokes-sim",
			"GAP-road-sim", "europe_osm-sim"),
		variants: 1,
		passes:   120,
		build:    newTCCase,
	},
	{
		name:     "ktruss-churn",
		why:      "k-truss(4), staged and fused: every round multiplies a new smaller matrix, so the plan cache only misses and the allocator shows",
		graphs:   graphsNamed("as-Skitter-sim", "stokes-sim", "uk-2002-sim"),
		variants: 2,
		passes:   17,
		build:    newKTrussCases,
	},
	{
		name:     "bc-road",
		why:      "batched BC on a small road lattice: ~265 tiny multiplies per op, so per-call fixed cost and graph glue are the whole cost",
		graphs:   []graphSpec{bcRoad},
		variants: 2,
		passes:   50,
		build:    newBCCases,
	},
	{
		name:     "trsv-iter",
		why:      "20 chained triangular solves per op on all ten graphs: the only workload that crosses wave barriers and runs the solve model",
		graphs:   corpus,
		variants: 1,
		passes:   25,
		build:    newTRSVCase,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// casesPerPass is the number of ops in one pass.
func (w workload) casesPerPass() int { return w.variants * len(w.graphs) }

// timedPasses scales the reference pass count to the requested length
// and applies the floor of minTimedOps timed ops.
func (w workload) timedPasses(seconds float64) int {
	n := int(float64(w.passes)*seconds/refSeconds + 0.5)
	floor := (minTimedOps + w.casesPerPass() - 1) / w.casesPerPass()
	return max(n, floor)
}

// caseInfo names one case of a prepared workload.
type caseInfo struct {
	graph   string
	variant string // "", "staged" or "fused"
	op      opCase
}

func (c caseInfo) label() string {
	if c.variant == "" {
		return c.graph
	}
	return c.graph + "/" + c.variant
}

// prepared is a workload after set-up.
type prepared struct {
	cases []caseInfo
	times prepTimes
	// first is the workload's first graph, the operand of the isolated
	// layer probes.
	first *spgemm.Matrix
}

// prepare generates the workload's graphs from seed and builds its
// cases, reference answers included.
func (w workload) prepare(shift int, seed uint64) (*prepared, error) {
	p := &prepared{}
	for _, g := range w.graphs {
		m, err := buildGraph(g, shift, seed, &p.times)
		if err != nil {
			return nil, fmt.Errorf("%s: building %s: %w", w.name, g.name, err)
		}
		if p.first == nil {
			p.first = m
		}
		cases, err := w.build(g.name, m, adjacencyOf(m))
		if err != nil {
			return nil, fmt.Errorf("%s: preparing %s: %w", w.name, g.name, err)
		}
		p.cases = append(p.cases, cases...)
	}
	return p, nil
}

// ---- triangle counting ------------------------------------------------

type tcCase struct {
	a         *spgemm.Matrix
	want, got int64
}

func newTCCase(graph string, g *spgemm.Matrix, adj adjacency) ([]caseInfo, error) {
	return []caseInfo{{graph: graph, op: &tcCase{a: g, want: oracleTriangles(adj), got: -1}}}, nil
}

func (c *tcCase) run(opts spgemm.Options) (err error) {
	c.got, err = spgemm.TriangleCount(c.a, opts)
	return err
}

func (c *tcCase) verify() error {
	got := c.got
	c.got = -1
	if got != c.want {
		return fmt.Errorf("triangle count %d, oracle says %d", got, c.want)
	}
	return nil
}

func (c *tcCase) corrupt()     { c.got++ }
func (c *tcCase) edges() int64 { return c.a.NNZ() }

// ---- k-truss ----------------------------------------------------------

const trussK = 4

// ktrussCase checks every result against the oracle's own peel: per op
// by fingerprint (truss entries are all 1, so the oracle's adjacency
// fixes the fingerprint), which also makes Fuse on and Fuse off equal
// entry for entry; once per set-up by the defining properties.
type ktrussCase struct {
	a         *spgemm.Matrix
	fuse      bool
	adj, want adjacency
	wantHash  uint64
	got       *spgemm.Matrix
}

func newKTrussCases(graph string, g *spgemm.Matrix, adj adjacency) ([]caseInfo, error) {
	want := oracleKTruss(adj, trussK)
	c := ktrussCase{a: g, adj: adj, want: want, wantHash: hashUnitMatrix(want)}
	staged, fused := c, c
	fused.fuse = true
	return []caseInfo{
		{graph: graph, variant: "staged", op: &staged},
		{graph: graph, variant: "fused", op: &fused},
	}, nil
}

func (c *ktrussCase) run(opts spgemm.Options) (err error) {
	opts.Fuse = c.fuse
	c.got, _, err = spgemm.KTruss(c.a, trussK, opts)
	return err
}

func (c *ktrussCase) verify() error {
	got := c.got
	c.got = nil
	if got == nil {
		return fmt.Errorf("k-truss returned no matrix")
	}
	if h := hashMatrix(got); h != c.wantHash {
		return fmt.Errorf("k-truss fingerprint %x, oracle peel has %x", h, c.wantHash)
	}
	return nil
}

func (c *ktrussCase) verifyFull() error {
	if c.got == nil {
		return fmt.Errorf("k-truss returned no matrix")
	}
	if err := checkKTruss(c.got, c.adj, c.want, trussK); err != nil {
		return err
	}
	return c.verify()
}

func (c *ktrussCase) corrupt()     { c.got = c.got.Tril() }
func (c *ktrussCase) edges() int64 { return c.a.NNZ() }

// ---- batched betweenness centrality -----------------------------------

const bcSources = 4

type bcCase struct {
	a       *spgemm.Matrix
	fuse    bool
	sources []int
	want    []float64
	got     []float64
}

func newBCCases(graph string, g *spgemm.Matrix, adj adjacency) ([]caseInfo, error) {
	n := g.Rows()
	sources := make([]int, bcSources)
	for b := range sources {
		// Evenly spread over the lattice, away from its corners.
		sources[b] = (2*b + 1) * n / (2 * bcSources)
	}
	want := oracleBC(adj, sources)
	return []caseInfo{
		{graph: graph, variant: "staged", op: &bcCase{a: g, sources: sources, want: want}},
		{graph: graph, variant: "fused", op: &bcCase{a: g, fuse: true, sources: sources, want: want}},
	}, nil
}

func (c *bcCase) run(opts spgemm.Options) (err error) {
	opts.Fuse = c.fuse
	c.got, err = spgemm.BetweennessCentralityBatch(c.a, c.sources, opts)
	return err
}

func (c *bcCase) verify() error {
	got := c.got
	c.got = nil
	return checkBC(got, c.want)
}

func (c *bcCase) corrupt()     { c.got[len(c.got)/2] += 1 }
func (c *bcCase) edges() int64 { return c.a.NNZ() * bcSources }

// ---- iterated triangular solve ----------------------------------------

// trsvChain is the number of back-to-back solves in one op: x₀ = 1,
// L·xₖ = xₖ₋₁ — the inner loop of an iterative solver that applies the
// same triangular factor over and over.
const trsvChain = 20

type trsvCase struct {
	l    *spgemm.Matrix
	adj  adjacency
	ones []float64
	// want is the fingerprint of the last iterate of the LevelSerial
	// reference chain; the default LevelAuto must match it bit for bit.
	want uint64
	got  []float64
}

func newTRSVCase(graph string, g *spgemm.Matrix, adj adjacency) ([]caseInfo, error) {
	// L = tril(A) + (1 + lower degree)·I, assembled through the facade.
	low := g.Tril()
	n := g.Rows()
	triples := make([]spgemm.Triple, 0, low.NNZ()+int64(n))
	for i := 0; i < n; i++ {
		cols, vals := low.Row(i)
		for k, j := range cols {
			triples = append(triples, spgemm.Triple{Row: i, Col: int(j), Val: vals[k]})
		}
		triples = append(triples, spgemm.Triple{Row: i, Col: i, Val: float64(1 + len(cols))})
	}
	l, err := spgemm.FromTriples(n, n, triples)
	if err != nil {
		return nil, err
	}
	c := &trsvCase{l: l, adj: adj, ones: make([]float64, n)}
	for i := range c.ones {
		c.ones[i] = 1
	}
	// Reference chain: serial substitution, every step's residual
	// checked against the adjacency.
	serial := spgemm.Defaults()
	serial.LevelSchedule = spgemm.LevelSerial
	x, err := c.chain(serial, func(x, b []float64) error { return checkResidual(adj, x, b) })
	if err != nil {
		return nil, err
	}
	c.want = hashVector(x)
	return []caseInfo{{graph: graph, op: c}}, nil
}

// chain runs the op's solves, handing each (solution, right-hand side)
// pair to step when it is non-nil.
func (c *trsvCase) chain(opts spgemm.Options, step func(x, b []float64) error) ([]float64, error) {
	b := c.ones
	for k := 0; k < trsvChain; k++ {
		x, err := spgemm.TRSV(c.l, b, spgemm.TriLower, opts)
		if err != nil {
			return nil, err
		}
		if step != nil {
			if err := step(x, b); err != nil {
				return nil, fmt.Errorf("solve %d of the chain: %w", k, err)
			}
		}
		b = x
	}
	return b, nil
}

func (c *trsvCase) run(opts spgemm.Options) (err error) {
	c.got, err = c.chain(opts, nil)
	return err
}

func (c *trsvCase) verify() error {
	got := c.got
	c.got = nil
	if len(got) != len(c.ones) {
		return fmt.Errorf("solution has %d entries, want %d", len(got), len(c.ones))
	}
	if h := hashVector(got); h != c.want {
		return fmt.Errorf("solve chain fingerprint %x differs from the LevelSerial reference %x", h, c.want)
	}
	return nil
}

func (c *trsvCase) corrupt()     { c.got[0] = -c.got[0] }
func (c *trsvCase) edges() int64 { return c.l.NNZ() * trsvChain }
