// Optimizer: the paper's motivating application — join-order optimization
// with sampling-based cardinality estimates. Builds a 3-relation star
// query whose join attributes are correlated in a way the System-R catalog
// (independence assumption) cannot see, then compares the plans chosen by
// three oracles: the sampling estimators, the AVI catalog, and exact
// counts.
//
//	go run ./examples/optimizer
package main

import (
	"fmt"
	"log"
	"strings"

	"relest"
	"relest/internal/planner"
)

func main() {
	rng := relest.Seeded(17)
	const nA, domain = 8_000, 500

	// A(u, k): u is Zipf-skewed (heavy hitters at low values), k uniform.
	schemaA := relest.MustSchema(relest.Col("u", relest.KindInt), relest.Col("k", relest.KindInt), relest.Col("aid", relest.KindInt))
	a := relest.NewRelation("A", schemaA)
	zipf := relest.ZipfRelation(rng, "Z", 1.2, domain, nA, relest.MapSmooth)
	zipfVals := make([]int64, 0, nA)
	zipf.EachRow(func(i int, row relest.Row) bool {
		zipfVals = append(zipfVals, row.Value(0).Int64())
		return true
	})
	for i := 0; i < nA; i++ {
		if err := a.AppendRow(relest.Int(zipfVals[i]), relest.Int(int64(rng.Intn(domain))), relest.Int(int64(i))); err != nil {
			log.Fatal(err)
		}
	}
	// B(u): same skew, ALIGNED heavy hitters → A⋈B explodes beyond what
	// |A||B|/d predicts.
	schemaB := relest.MustSchema(relest.Col("u", relest.KindInt), relest.Col("bid", relest.KindInt))
	b := relest.NewRelation("B", schemaB)
	zb := relest.ZipfRelation(rng, "Z2", 1.2, domain, nA/20, relest.MapSmooth)
	zb.EachRow(func(i int, row relest.Row) bool {
		if err := b.AppendRow(row.Value(0), relest.Int(int64(i))); err != nil {
			log.Fatal(err)
		}
		return true
	})
	// C(k): uniform — the AVI estimate for A⋈C is essentially exact.
	schemaC := relest.MustSchema(relest.Col("k", relest.KindInt), relest.Col("cid", relest.KindInt))
	c := relest.NewRelation("C", schemaC)
	for i := 0; i < 3*nA/20; i++ {
		if err := c.AppendRow(relest.Int(int64(rng.Intn(domain))), relest.Int(int64(i))); err != nil {
			log.Fatal(err)
		}
	}

	cat := relest.MapCatalog{"A": a, "B": b, "C": c}
	q := planner.Query{
		Relations: []string{"A", "B", "C"},
		Schemas:   map[string]*relest.Schema{"A": schemaA, "B": schemaB, "C": schemaC},
		Edges: []planner.Edge{
			{A: "A", B: "B", ACol: "u", BCol: "u"},
			{A: "A", B: "C", ACol: "k", BCol: "k"},
		},
	}

	// The three oracles.
	syn, err := relest.Draw([]*relest.Relation{a, b, c}, 0.05, 100, rng)
	if err != nil {
		log.Fatal(err)
	}
	catalogOracle, err := planner.NewCatalog(q, cat)
	if err != nil {
		log.Fatal(err)
	}
	oracles := []struct {
		name   string
		oracle planner.CardinalityEstimator
	}{
		{"exact counts", planner.Exact{Cat: cat}},
		{"sampling (5%)", planner.Sampling{Syn: syn}},
		{"System-R catalog (AVI)", catalogOracle},
	}

	fmt.Printf("query: A ⋈ B on u, A ⋈ C on k   (|A|=%d, |B|=%d, |C|=%d)\n", a.Len(), b.Len(), c.Len())
	fmt.Printf("A.u and B.u share Zipf(1.2) heavy hitters; A.k and C.k are uniform.\n\n")
	fmt.Printf("%-24s %-14s %-16s %-16s\n", "oracle", "chosen order", "estimated cost", "TRUE cost")
	for _, o := range oracles {
		plan, err := planner.Optimize(q, o.oracle)
		if err != nil {
			log.Fatal(err)
		}
		trueCost, err := planner.TrueCost(q, plan.Order, cat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %-14s %-16.0f %-16.0f\n",
			o.name, strings.Join(plan.Order, "⋈"), plan.EstCost, trueCost)
	}
	fmt.Println("\nThe catalog's independence assumption underestimates A⋈B (aligned")
	fmt.Println("skew) and can start with the explosive join; the sampling oracle")
	fmt.Println("estimates each prefix as a whole and ranks the orders correctly.")
}
