package estimator

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
)

var updateKernelGolden = flag.Bool("update-kernel-golden", false, "rewrite testdata/kernel.golden from the current code")

// TestKernelGolden pins the sample tier's outputs across commits: the
// exact bits of Value/Variance/Lo/Hi (plus the variance method and term
// count) for a table of seed-pinned cases covering every weight branch
// (uniform scale-up, Horvitz–Thompson, falling-factorial pattern weights),
// every contribution (COUNT, SUM, AVG, GROUP BY) and every rung of the
// variance ladder. The bit-identity matrices elsewhere compare
// configurations of one build; this file compares builds. Every case runs
// at workers {1, 4} and both must reproduce the committed line.
//
// The golden was generated from the code before the kernels were unified
// and must never be regenerated as a side effect: a drifted line means an
// estimate changed.
func TestKernelGolden(t *testing.T) {
	var byWorkers [2][]byte
	for i, workers := range []int{1, 4} {
		byWorkers[i] = kernelGoldenOutput(t, workers)
	}
	if !bytes.Equal(byWorkers[0], byWorkers[1]) {
		t.Fatalf("workers=1 and workers=4 disagree:\n--- workers=1\n%s--- workers=4\n%s", byWorkers[0], byWorkers[1])
	}
	const path = "testdata/kernel.golden"
	if *updateKernelGolden {
		if err := os.WriteFile(path, byWorkers[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byWorkers[0], want) {
		t.Errorf("kernel outputs drifted from %s:\n--- got\n%s--- want\n%s", path, byWorkers[0], want)
	}
}

// kernelFixture is the seed-pinned data every golden case draws from:
// R(id, a, b) with 1000 rows (a multiple of the 25-row page size, so every
// page is full) and S(id, a, c) with 600; ids are unique, which makes the
// relations — and their join — duplicate-free as the set operations
// require.
type kernelFixture struct {
	r, s *relation.Relation
}

func newKernelFixture() kernelFixture {
	rng := testRand(20260928)
	rRows := make([][]int64, 1000)
	for i := range rRows {
		rRows[i] = []int64{int64(i), int64(rng.Intn(40)), int64(rng.Intn(500))}
	}
	sRows := make([][]int64, 600)
	for i := range sRows {
		sRows[i] = []int64{int64(i), int64(rng.Intn(40)), int64(rng.Intn(500))}
	}
	return kernelFixture{
		r: intRelation("R", []string{"id", "a", "b"}, rRows),
		s: intRelation("S", []string{"id", "a", "c"}, sRows),
	}
}

// synopsis draws R under the named design and S tuple-at-a-time.
func (f kernelFixture) synopsis(t *testing.T, design string, seed int64) *Synopsis {
	t.Helper()
	rng := testRand(seed)
	syn := NewSynopsis()
	var err error
	switch design {
	case "tuple":
		err = syn.AddDrawn(f.r, 120, rng)
	case "page":
		err = syn.AddDrawnPages(f.r, 25, 12, rng)
	case "stratified":
		err = syn.AddDrawnStratified(f.r, func(row relation.Row) int { return int(row.Value(1).Int64() % 4) }, 160, rng)
	default:
		t.Fatalf("unknown design %q", design)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := syn.AddDrawn(f.s, 90, rng); err != nil {
		t.Fatal(err)
	}
	return syn
}

func kernelGoldenOutput(t *testing.T, workers int) []byte {
	t.Helper()
	f := newKernelFixture()
	br, bs := algebra.BaseOf(f.r), algebra.BaseOf(f.s)
	lt := func(col string, v int64) algebra.Predicate {
		return algebra.Cmp{Col: col, Op: algebra.LT, Val: relation.Int(v)}
	}
	sel := algebra.Must(algebra.Select(br, lt("a", 17)))
	join := algebra.Must(algebra.Join(br, bs, []algebra.On{{Left: "a", Right: "a"}}, nil, "S"))
	inter := algebra.Must(algebra.Intersect(
		algebra.Must(algebra.Select(br, lt("a", 25))),
		algebra.Must(algebra.Select(br, lt("b", 300)))))
	selfJoin := algebra.Must(algebra.Join(br, br, []algebra.On{{Left: "a", Right: "a"}}, lt("b", 120), "R2"))
	// (σ₁J ∪ σ₂J) ∪ σ₃J over J = R ⋈ S: the seven inclusion–exclusion terms,
	// relations repeated up to three times, one join prefix shared by all.
	// Replacing σ₃J by σ₃J − σ₁J mixes in EXCEPT (eleven terms).
	s1 := algebra.Must(algebra.Select(join, lt("b", 150)))
	s2 := algebra.Must(algebra.Select(join, lt("c", 150)))
	s3 := algebra.Must(algebra.Select(join, lt("a", 10)))
	seven := algebra.Must(algebra.Union(algebra.Must(algebra.Union(s1, s2)), s3))
	except := algebra.Must(algebra.Union(algebra.Must(algebra.Union(s1, s2)), algebra.Must(algebra.Diff(s3, s1))))
	for _, c := range []struct {
		e    *algebra.Expr
		want int
	}{{seven, 7}, {except, 11}} {
		if poly, err := algebra.Normalize(c.e); err != nil || poly.NumTerms() != c.want {
			t.Fatalf("set-operation fixture normalizes to %d terms, want %d (err %v)", poly.NumTerms(), c.want, err)
		}
	}

	var out bytes.Buffer
	ctx := context.Background()
	line := func(name string, est Estimate, err error) {
		if err != nil {
			fmt.Fprintf(&out, "%s error=%q\n", name, err)
			return
		}
		fmt.Fprintf(&out, "%s method=%s terms=%d value=%016x variance=%016x lo=%016x hi=%016x # %.6g\n",
			name, est.VarianceMethod, est.Terms,
			math.Float64bits(est.Value), math.Float64bits(est.Variance),
			math.Float64bits(est.Lo), math.Float64bits(est.Hi), est.Value)
	}
	opts := func(v VarianceMethod) Options { return Options{Variance: v, Seed: 7, Workers: workers} }
	count := func(name string, e *algebra.Expr, syn *Synopsis, o Options) {
		est, err := countOf(e, syn, o)
		line(name, est, err)
	}
	sum := func(name string, e *algebra.Expr, col string, syn *Synopsis, o Options) {
		est, err := sumOf(e, col, syn, o)
		line(name, est, err)
	}
	groups := func(name string, e *algebra.Expr, col string, syn *Synopsis) {
		gs, _, err := sampleHandle(syn, Options{Workers: workers}).GroupCount(ctx, Request{Expr: e, Col: col})
		if err != nil {
			fmt.Fprintf(&out, "%s error=%q\n", name, err)
			return
		}
		for _, g := range gs {
			fmt.Fprintf(&out, "%s group=%v count=%016x # %.6g\n", name, g.Value, math.Float64bits(g.Count), g.Count)
		}
	}

	// Designs × aggregates × variance methods (the jackknife does not
	// support stratified samples).
	for _, design := range []string{"tuple", "page", "stratified"} {
		syn := f.synopsis(t, design, 101)
		methods := []VarianceMethod{VarAuto, VarSplitSample, VarJackknife, VarNone}
		if design == "stratified" {
			methods = []VarianceMethod{VarAuto, VarSplitSample, VarNone}
		}
		for _, m := range methods {
			count(fmt.Sprintf("%s/count/select/%s", design, m), sel, syn, opts(m))
			count(fmt.Sprintf("%s/count/join/%s", design, m), join, syn, opts(m))
			sum(fmt.Sprintf("%s/sum/select/%s", design, m), sel, "b", syn, opts(m))
			sum(fmt.Sprintf("%s/sum/join/%s", design, m), join, "c", syn, opts(m))
		}
		// VarAnalytic: closed forms for COUNT, degraded to replication for SUM.
		count(fmt.Sprintf("%s/count/select/analytic", design), sel, syn, opts(VarAnalytic))
		sum(fmt.Sprintf("%s/sum/select/analytic", design), sel, "b", syn, opts(VarAnalytic))
		groups(fmt.Sprintf("%s/group/select", design), sel, "a", syn)
		groups(fmt.Sprintf("%s/group/join", design), join, "a", syn)
	}

	// Repeated-relation terms: falling-factorial pattern weights.
	tuple := f.synopsis(t, "tuple", 202)
	for _, m := range []VarianceMethod{VarAuto, VarSplitSample, VarJackknife} {
		count(fmt.Sprintf("repeat/count/intersect/%s", m), inter, tuple, opts(m))
		sum(fmt.Sprintf("repeat/sum/intersect/%s", m), inter, "b", tuple, opts(m))
		count(fmt.Sprintf("repeat/count/selfjoin/%s", m), selfJoin, tuple, opts(m))
		sum(fmt.Sprintf("repeat/sum/selfjoin/%s", m), selfJoin, "R2.b", tuple, opts(m))
	}
	groups("repeat/group/selfjoin", selfJoin, "a", tuple)

	// Set-operation polynomials. The cse=true/false rows were generated
	// with cross-term sharing on and off; the layer is gone (PR 22), so the
	// pairs now pin that the vestigial DisableCSE field is inert.
	for _, disable := range []bool{false, true} {
		for _, m := range []VarianceMethod{VarAuto, VarJackknife} {
			o := opts(m)
			o.DisableCSE = disable
			count(fmt.Sprintf("seven/count/cse=%v/%s", !disable, m), seven, tuple, o)
			sum(fmt.Sprintf("seven/sum/cse=%v/%s", !disable, m), seven, "c", tuple, o)
		}
		o := opts(VarAuto)
		o.DisableCSE = disable
		count(fmt.Sprintf("except/count/cse=%v/auto", !disable), except, tuple, o)
	}

	// AVG over a join: the ratio and both components.
	for _, m := range []VarianceMethod{VarAuto, VarJackknife} {
		avg, err := avgOf(join, "c", tuple, opts(m))
		name := fmt.Sprintf("avg/join/%s", m)
		if err != nil {
			fmt.Fprintf(&out, "%s error=%q\n", name, err)
			continue
		}
		fmt.Fprintf(&out, "%s avg=%016x # %.6g\n", name, math.Float64bits(avg.Avg), avg.Avg)
		line(name+"/sum", avg.Sum, nil)
		line(name+"/count", avg.Count, nil)
	}

	// Chebyshev interval at a non-default level and group count.
	cheb := opts(VarSplitSample)
	cheb.CI, cheb.Confidence, cheb.Groups = CIChebyshev, 0.9, 5
	count("tuple/count/join/chebyshev", join, tuple, cheb)
	sum("tuple/sum/join/chebyshev", join, "c", tuple, cheb)

	// Two-phase sequential sampling drives the same sample tier twice.
	seqSyn := f.synopsis(t, "tuple", 303)
	seq, err := seqCount(join, seqSyn, testRand(5), SequentialOptions{
		TargetRelErr: 0.05, PilotSize: 150, Estimate: Options{Seed: 7, Workers: workers}})
	line("sequential/pilot", seq.Pilot, err)
	line("sequential/final", seq.Final, err)

	// Stratified merge of two independently drawn partials.
	var parts []Partial
	for _, seed := range []int64{404, 505} {
		est, err := countOf(join, f.synopsis(t, "tuple", seed), opts(VarAuto))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, Partial{Value: est.Value, Variance: est.Variance, Method: est.VarianceMethod, Terms: est.Terms})
	}
	merged, _, err := MergeStratified(parts, 2, opts(VarAuto))
	line("merge/two-partials", merged, err)
	degraded, _, err := MergeStratified(parts[:1], 2, opts(VarAuto))
	line("merge/one-of-two", degraded, err)

	return out.Bytes()
}
