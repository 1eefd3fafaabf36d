package bench

import (
	"strings"
	"testing"

	"relest/internal/estimator"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "T0",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	md := tab.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| 333 | 4 |") || !strings.Contains(md, "> a note") {
		t.Errorf("markdown:\n%s", md)
	}
	plain := tab.Plain()
	if !strings.Contains(plain, "T0 — demo") || !strings.Contains(plain, "333") || !strings.Contains(plain, "note: a note") {
		t.Errorf("plain:\n%s", plain)
	}
}

func TestErrorStats(t *testing.T) {
	var es ErrorStats
	es.Observe(110, 100)
	es.Observe(90, 100)
	if es.ARE() != 10 {
		t.Errorf("ARE %v", es.ARE())
	}
	if es.Bias() != 0 {
		t.Errorf("bias %v", es.Bias())
	}
	if es.N() != 2 {
		t.Errorf("n %d", es.N())
	}
}

func TestCoverage(t *testing.T) {
	var c Coverage
	c.Observe(0, 10, 5)
	c.Observe(0, 10, 50)
	if c.Rate() != 50 {
		t.Errorf("rate %v", c.Rate())
	}
	if c.MeanWidth() != 10 {
		t.Errorf("width %v", c.MeanWidth())
	}
	var empty Coverage
	if empty.Rate() != 0 {
		t.Error("empty coverage rate")
	}
}

func TestFormatters(t *testing.T) {
	if Pct(12.345) != "12.35%" && Pct(12.345) != "12.34%" {
		t.Errorf("Pct %s", Pct(12.345))
	}
	if Num(0) != "0" || Num(3) != "3" || Num(2.5) != "2.500" {
		t.Errorf("Num: %s %s %s", Num(0), Num(3), Num(2.5))
	}
	if !strings.Contains(Num(3e7), "e+07") && Num(3e7) != "3e+07" {
		t.Errorf("Num big: %s", Num(3e7))
	}
}

func TestLookupAndIDs(t *testing.T) {
	ids := IDs()
	if len(ids) != 14 {
		t.Fatalf("ids %v", ids)
	}
	if ids[0][0] != 'T' || ids[len(ids)-1][0] != 'A' {
		t.Errorf("ordering %v", ids)
	}
	if _, err := Lookup("T1"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("XX"); err == nil {
		t.Error("unknown id should fail")
	}
}

// TestExperimentsRunQuick smoke-runs every experiment at quick scale and
// checks structural invariants of the outputs. This is the integration test
// of the entire stack: workloads → synopses → estimators → tables.
func TestExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			tab := e.Run(42, Scale{Quick: true})
			if tab.ID != id {
				t.Errorf("table id %q", tab.ID)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for ri, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells, want %d", ri, len(row), len(tab.Columns))
				}
				for ci, cell := range row {
					if cell == "" {
						t.Errorf("row %d cell %d empty", ri, ci)
					}
				}
			}
		})
	}
}

// TestT5FusedUnionCalibrated: at T5's quick scale and the experiments'
// default seed, (σ₁(R1) ∪ σ₂(R1)) ⋈ R2 under the automatic variance is
// answered by the closed form of its fused term, and the mean variance
// estimate is within [0.8, 1.25] of the empirical variance.
func TestT5FusedUnionCalibrated(t *testing.T) {
	fix := newT5Fixture(42, 4_000)
	r := fix.varianceRatio(fix.unionSelectJoin(), estimator.VarAuto, 40)
	if r.method != estimator.VarAnalytic {
		t.Errorf("auto variance resolved to %v, want the closed form", r.method)
	}
	if r.ratio < 0.8 || r.ratio > 1.25 {
		t.Errorf("E[Var̂]/Var = %.3f, want within [0.8, 1.25]", r.ratio)
	}
}
