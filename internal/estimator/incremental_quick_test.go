package estimator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"relest/internal/algebra"
	"relest/internal/relation"
	"relest/internal/sampling"
)

// refIncremental is the incremental synopsis kept the plain way: boxed
// tuples in one paired reservoir per relation, all drawing from one
// generator, and a snapshot that appends every sampled tuple into a fresh
// relation. The columnar store must reproduce it exactly.
type refIncremental struct {
	schema *relation.Schema
	res    map[string]*sampling.PairedReservoir[relation.Tuple]
}

func newRefIncremental(seed int64, capacity int, schema *relation.Schema, names []string) *refIncremental {
	rng := testRand(seed)
	ref := &refIncremental{schema: schema, res: map[string]*sampling.PairedReservoir[relation.Tuple]{}}
	for _, name := range names {
		ref.res[name] = sampling.NewPairedReservoir[relation.Tuple](rng, capacity,
			func(t relation.Tuple) string { return t.Key(nil) })
	}
	return ref
}

func (ref *refIncremental) snapshot() (*Synopsis, error) {
	syn := NewSynopsis()
	names := make([]string, 0, len(ref.res))
	for name := range ref.res {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res := ref.res[name]
		sample := relation.New(name, ref.schema)
		for _, t := range res.Items() {
			if err := sample.Append(t); err != nil {
				return nil, err
			}
		}
		if err := syn.AddSample(sample, int(res.PopulationSize())); err != nil {
			return nil, err
		}
	}
	return syn, nil
}

// cellString renders a value so that two cells render alike exactly when
// they hold the same kind and the same bits (-0 and +0 differ).
func cellString(v relation.Value) string { return fmt.Sprintf("%v:%s", v.Kind(), v.String()) }

// sampleCells renders every cell of the named sample, row by row.
func sampleCells(syn *Synopsis, name string) []string {
	r, _ := syn.Relation(name)
	var out []string
	r.EachRow(func(_ int, row relation.Row) bool {
		for c := 0; c < row.Len(); c++ {
			out = append(out, cellString(row.Value(c)))
		}
		return true
	})
	return out
}

// TestQuickIncrementalSnapshot streams random inserts and deletes into an
// Incremental and replays the events it accepts into refIncremental, with
// one seed for both. The streams mix every value kind (nulls, -0, NaN,
// strings), duplicate tuples, deletes of tuples never inserted and of
// every sampled tuple (so insertions run random pairing's compensation
// phase), with capacities small enough that the store compacts many
// times. The Incremental must refuse only with ErrRefusedEvent, and
// must refuse some duplicates and some deletes of absent tuples. At
// checkpoints the snapshot must succeed and hold the reference's rows
// cell for cell, in the same slot order, with each row's Key equal to the
// tuple's, and its sample-tier estimates must print the same; the store
// never holds more than twice the capacity; and every snapshot taken
// reads the same at the end of the stream, after all later events and
// compactions.
func TestQuickIncrementalSnapshot(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "f", Kind: relation.KindFloat},
		relation.Column{Name: "s", Kind: relation.KindString},
		relation.Column{Name: "id", Kind: relation.KindInt},
	)
	names := []string{"R", "S"}
	rs := algebra.Base("R", schema)
	queries := []*algebra.Expr{
		rs,
		algebra.Must(algebra.Select(rs, algebra.Cmp{Col: "k", Op: algebra.LT, Val: relation.Int(3)})),
		algebra.Must(algebra.Select(rs, algebra.Cmp{Col: "s", Op: algebra.EQ, Val: relation.Str("b")})),
		algebra.Must(algebra.Join(rs, algebra.Base("S", schema), []algebra.On{{Left: "k", Right: "k"}}, nil, "S")),
	}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.NaN(), 2}
	compactions := 0
	refused := map[string]int{}
	for trial := 0; trial < 120 && !t.Failed(); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(12)
		inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: capacity, RNG: testRand(int64(trial))})
		for _, name := range names {
			if err := inc.Track(name, schema); err != nil {
				t.Fatal(err)
			}
		}
		ref := newRefIncremental(int64(trial), capacity, schema, names)
		live := map[string][]relation.Tuple{}
		cell := func(null bool, v relation.Value) relation.Value {
			if null && rng.Intn(6) == 0 {
				return relation.Null()
			}
			return v
		}
		tuple := func(id int) relation.Tuple {
			return relation.Tuple{
				cell(true, relation.Int(int64(rng.Intn(5)))),
				cell(true, relation.Float(floats[rng.Intn(len(floats))])),
				cell(true, relation.Str(string(rune('a'+rng.Intn(3))))),
				cell(false, relation.Int(int64(id))),
			}
		}
		type held struct {
			syn   *Synopsis
			cells map[string][]string
		}
		var snaps []held
		stores := map[*relation.Relation]bool{}
		deleteBurst := 0
		events := 200 + rng.Intn(400)
		for ev := 0; ev < events; ev++ {
			name := names[rng.Intn(len(names))]
			var op string
			var tup relation.Tuple
			switch {
			case deleteBurst > 0 || (len(live[name]) > 0 && rng.Intn(4) == 0):
				// Deletes come in bursts now and then, so insertions
				// afterwards pair with them.
				if deleteBurst > 0 {
					deleteBurst--
				} else if rng.Intn(20) == 0 {
					deleteBurst = 3 + rng.Intn(2*capacity+3)
				}
				op = "delete"
				if l := live[name]; len(l) > 0 && rng.Intn(15) != 0 {
					tup = l[rng.Intn(len(l))]
				} else {
					tup = tuple(-1 - ev) // never inserted
				}
			default:
				op = "insert"
				tup = tuple(ev)
				if l := live[name]; len(l) > 0 && rng.Intn(25) == 0 {
					tup = l[rng.Intn(len(l))] // a duplicate
				}
			}
			var err error
			if op == "insert" {
				err = inc.Insert(name, tup)
			} else {
				err = inc.Delete(name, tup)
			}
			switch {
			case errors.Is(err, ErrRefusedEvent):
				refused[op]++
			case err != nil:
				t.Fatalf("trial %d event %d: %s %v: %v", trial, ev, op, tup, err)
			case op == "insert":
				ref.res[name].Insert(tup)
				live[name] = append(live[name], tup)
			default:
				if !ref.res[name].Delete(tup) {
					t.Fatalf("trial %d event %d: the reference refused an accepted delete", trial, ev)
				}
				for i, lt := range live[name] {
					if lt.Key(nil) == tup.Key(nil) {
						live[name] = append(live[name][:i], live[name][i+1:]...)
						break
					}
				}
			}
			ir := inc.rels[name]
			stores[ir.store] = true
			if ir.store.Len() > 2*capacity {
				t.Fatalf("trial %d event %d: store holds %d rows, capacity %d", trial, ev, ir.store.Len(), capacity)
			}
			if ev%37 != 0 && ev != events-1 {
				continue
			}
			got, gerr := inc.Snapshot()
			want, werr := ref.snapshot()
			if gerr != nil || werr != nil {
				t.Fatalf("trial %d event %d: snapshot error %v, reference %v", trial, ev, gerr, werr)
			}
			h := held{syn: got, cells: map[string][]string{}}
			for _, n := range names {
				gn, _ := got.PopulationSize(n)
				wn, _ := want.PopulationSize(n)
				gc, wc := sampleCells(got, n), sampleCells(want, n)
				if gn != wn || fmt.Sprint(gc) != fmt.Sprint(wc) {
					t.Fatalf("trial %d event %d: %s holds %v of %d, reference %v of %d", trial, ev, n, gc, gn, wc, wn)
				}
				h.cells[n] = gc
				r, _ := got.Relation(n)
				for i, tp := range ref.res[n].Items() {
					if r.Row(i).Key(nil) != tp.Key(nil) {
						t.Fatalf("trial %d event %d: %s row %d keys %q, its tuple %q", trial, ev, n, i, r.Row(i).Key(nil), tp.Key(nil))
					}
				}
			}
			for qi, q := range queries {
				for _, v := range []VarianceMethod{VarNone, VarAnalytic} {
					ge, gerr := countOf(q, got, Options{Variance: v, Seed: 3})
					we, werr := countOf(q, want, Options{Variance: v, Seed: 3})
					if g, w := fmt.Sprintf("%+v %v", ge, gerr), fmt.Sprintf("%+v %v", we, werr); g != w {
						t.Fatalf("trial %d event %d: query %d (%v): estimate %s, reference %s", trial, ev, qi, v, g, w)
					}
				}
			}
			snaps = append(snaps, h)
		}
		compactions += len(stores) - len(names)
		for i, h := range snaps {
			for _, n := range names {
				if got := sampleCells(h.syn, n); fmt.Sprint(got) != fmt.Sprint(h.cells[n]) {
					t.Fatalf("trial %d: snapshot %d of %s changed under later events: %v, was %v", trial, i, n, got, h.cells[n])
				}
			}
		}
	}
	if compactions < 100 {
		t.Errorf("the streams compacted a store %d times; they should cross that boundary often", compactions)
	}
	if refused["insert"] == 0 || refused["delete"] == 0 {
		t.Errorf("refused %v; the streams should send refused duplicates and absent deletes", refused)
	}
}

// TestIncrementalRejectsWrongKind checks that a tuple whose value has the
// wrong kind for its column is refused by Insert and Delete before the
// reservoir or the sketches see it, so later events and snapshots work
// as if it never arrived.
func TestIncrementalRejectsWrongKind(t *testing.T) {
	inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 4, RNG: testRand(1)})
	if err := inc.Track("R", intSchema("a", "b")); err != nil {
		t.Fatal(err)
	}
	bad := relation.Tuple{relation.Str("x"), relation.Int(1)}
	if err := inc.Insert("R", bad); err == nil {
		t.Fatal("inserting a string into an int column succeeded")
	}
	if err := inc.Insert("R", relation.Tuple{relation.Int(1), relation.Null()}); err != nil {
		t.Fatalf("a null in an int column: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := inc.Insert("R", relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Delete("R", relation.Tuple{relation.Int(1), relation.Float(1)}); err == nil {
		t.Fatal("deleting a float from an int column succeeded")
	}
	if n, _ := inc.PopulationSize("R"); n != 11 {
		t.Errorf("population %d, want 11: a refused event changed it", n)
	}
	syn, err := inc.Snapshot()
	if err != nil {
		t.Fatalf("snapshot after a refused tuple: %v", err)
	}
	r, _ := syn.Relation("R")
	if r.Len() != 4 {
		t.Errorf("sample holds %d rows, want 4", r.Len())
	}
	rk := syn.relSketch("R")
	if got := rk.distinct[0].Estimate(); got != 10 {
		t.Errorf("distinct values of a: %v, want 10: the refused tuple reached the sketches", got)
	}
}

// TestIncrementalSnapshotConcurrent estimates from snapshots on several
// goroutines while the stream keeps inserting and deleting — strings the
// store has not seen, nulls, and enough events to compact the store many
// times — the way the server uses an incremental synopsis: events and
// snapshots under one lock, estimates outside it. Run under -race: an
// event writes no memory a snapshot reads, and each snapshot reads the
// same rows before and after its estimates.
func TestIncrementalSnapshotConcurrent(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "k", Kind: relation.KindInt},
		relation.Column{Name: "s", Kind: relation.KindString},
	)
	inc := NewIncrementalWithOptions(IncrementalOptions{Capacity: 50, RNG: testRand(3)})
	for _, name := range []string{"R", "S"} {
		if err := inc.Track(name, schema); err != nil {
			t.Fatal(err)
		}
	}
	tuple := func(i int) relation.Tuple {
		tp := relation.Tuple{relation.Int(int64(i % 13)), relation.Str(fmt.Sprint("s", i))}
		if i%4 == 0 {
			tp[i/4%2] = relation.Null()
		}
		return tp
	}
	rs := algebra.Base("R", schema)
	queries := []*algebra.Expr{
		algebra.Must(algebra.Select(rs, algebra.Cmp{Col: "s", Op: algebra.LT, Val: relation.Str("s5")})),
		algebra.Must(algebra.Join(rs, algebra.Base("S", schema), []algebra.On{{Left: "k", Right: "k"}}, nil, "S")),
		algebra.Must(algebra.Join(rs, algebra.Base("S", schema), []algebra.On{{Left: "s", Right: "s"}}, nil, "S")),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 30; round++ {
				mu.Lock()
				syn, err := inc.Snapshot()
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				before := sampleCells(syn, "R")
				for _, q := range queries {
					if _, err := countOf(q, syn, Options{Seed: int64(round)}); err != nil {
						t.Error(err)
						return
					}
				}
				if after := sampleCells(syn, "R"); fmt.Sprint(after) != fmt.Sprint(before) {
					t.Errorf("goroutine %d round %d: a snapshot changed under the stream", g, round)
					return
				}
			}
		}()
	}
	for i := 0; i < 3000; i++ {
		name := []string{"R", "S"}[i%2]
		mu.Lock()
		err := inc.Insert(name, tuple(i))
		if errors.Is(err, ErrRefusedEvent) {
			err = nil // a tuple with a null s can repeat one the sample holds
		}
		if err == nil && i%3 == 2 {
			err = inc.Delete(name, tuple(i-2))
		}
		mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
