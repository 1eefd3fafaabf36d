package algebra

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"relest/internal/obs"
	"relest/internal/relation"
)

// rowBag returns the relation's rows as sorted key encodings — a canonical
// bag representation that is order-insensitive but duplicate-preserving, so
// it can compare the streaming executor's probe-left output order against
// Eval's size-based build-side order.
func rowBag(r *relation.Relation) []string {
	keys := make([]string, 0, r.Len())
	var buf []byte
	for i := 0; i < r.Len(); i++ {
		buf = r.Row(i).AppendKey(buf[:0], nil)
		keys = append(keys, string(buf))
	}
	sort.Strings(keys)
	return keys
}

func equalBags(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkStreamAgainstEval is the oracle check: StreamEval's bag equals
// Eval's, and StreamCount at several worker counts equals Eval's
// cardinality.
func checkStreamAgainstEval(t *testing.T, label string, e *Expr, cat Catalog) {
	t.Helper()
	want, werr := Eval(e, cat)
	got, gerr := StreamEval(e, cat)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: Eval err=%v, StreamEval err=%v", label, werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("%s: error mismatch: Eval %q, StreamEval %q", label, werr, gerr)
		}
		return
	}
	if !equalBags(rowBag(want), rowBag(got)) {
		t.Fatalf("%s: StreamEval bag (%d rows) != Eval bag (%d rows)", label, got.Len(), want.Len())
	}
	for _, workers := range []int{1, 4} {
		n, err := StreamCountOpts(e, cat, StreamOptions{Workers: workers})
		if err != nil {
			t.Fatalf("%s: StreamCountOpts(workers=%d): %v", label, workers, err)
		}
		if n != int64(want.Len()) {
			t.Fatalf("%s: StreamCount(workers=%d) = %d, Eval has %d rows", label, workers, n, want.Len())
		}
	}
}

// TestStreamMatchesEvalRandomized is the streaming executor's property
// test: on randomized π-free expressions the streaming Count and the
// drained stream agree with the materializing evaluator.
func TestStreamMatchesEvalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 150; trial++ {
		cat, bases := randomCatalog(rng)
		e := randomExpr(rng, bases, 3)
		checkStreamAgainstEval(t, e.String(), e, cat)
	}
}

// TestStreamMatchesEvalProjected covers the π path (randomExpr is π-free):
// projections over joins and set operations dedup identically.
func TestStreamMatchesEvalProjected(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		cat, bases := randomCatalog(rng)
		inner := randomExpr(rng, bases, 2)
		cols := inner.Schema().Columns()
		name := cols[rng.Intn(len(cols))].Name
		e := Must(Project(inner, name))
		checkStreamAgainstEval(t, e.String(), e, cat)
	}
}

// TestStreamMatchesEvalFuzzCorpus replays the committed FuzzNormalize
// corpus through the streaming-vs-materializing oracle, reusing the fuzz
// decoder so the corpus keeps covering both evaluators.
func TestStreamMatchesEvalFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzNormalize")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read corpus dir: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: unexpected corpus format", ent.Name())
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: unquote corpus payload: %v", ent.Name(), err)
		}
		cat := fuzzCatalog()
		e := (&exprReader{data: []byte(data)}).expr(cat, 4)
		checkStreamAgainstEval(t, ent.Name()+": "+e.String(), e, cat)
	}
}

// TestStreamSelectAboveJoinReadsSetOpBuildColumn pins a selection above a
// join that reads a build-side column when the build side is itself a set
// operation (which owns its output rows): the streaming count must equal
// Eval's for workers 1 and 4.
func TestStreamSelectAboveJoinReadsSetOpBuildColumn(t *testing.T) {
	schema := func() *relation.Schema {
		return relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
		)
	}
	r := relation.New("R", schema())
	for i := 0; i < 8*relation.BatchRows; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 16)), relation.Int(int64(i))})
	}
	s1 := relation.New("S1", schema())
	s2 := relation.New("S2", schema())
	for i := 0; i < 16; i++ {
		s1.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i * 10))})
		s2.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i*10 + 1))})
	}
	cat := MapCatalog{"R": r, "S1": s1, "S2": s2}
	u := Must(Union(BaseOf(s1), BaseOf(s2)))
	j := Must(Join(BaseOf(r), u, []On{{Left: "a", Right: "a"}}, nil, "u"))
	// Selection above the join reading a build-side column (colliding
	// right-side names are prefixed "u.": see Join's rightPrefix doc).
	e := Must(Select(j, Cmp{Col: "u.b", Op: GE, Val: relation.Int(0)}))

	want, err := Eval(e, cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		n, err := StreamCountOpts(e, cat, StreamOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if n != int64(want.Len()) {
			t.Fatalf("workers=%d: got %d want %d", w, n, want.Len())
		}
	}
}

// streamFixture builds a σ/⋈ pipeline whose probe side has n rows: a large
// scan filtered and hash-joined against a fixed 64-row build side. The
// pipeline's live state is its operator batches plus that build side, so
// its memory ceiling must not grow with n.
func streamFixture(n int) (*Expr, MapCatalog) {
	schema := func() *relation.Schema {
		return relation.MustSchema(
			relation.Column{Name: "a", Kind: relation.KindInt},
			relation.Column{Name: "b", Kind: relation.KindInt},
		)
	}
	r := relation.New("R", schema())
	for i := 0; i < n; i++ {
		r.MustAppend(relation.Tuple{relation.Int(int64(i % 64)), relation.Int(int64(i))})
	}
	s := relation.New("S", schema())
	for i := 0; i < 64; i++ {
		s.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i * 100))})
	}
	cat := MapCatalog{"R": r, "S": s}
	sel := Must(Select(BaseOf(r), Cmp{Col: "b", Op: GE, Val: relation.Int(0)}))
	e := Must(Join(sel, BaseOf(s), []On{{Left: "a", Right: "a"}}, nil, "s"))
	return e, cat
}

// streamPeakBytes runs a streaming count and returns the executor's peak
// working-set gauge.
func streamPeakBytes(t *testing.T, e *Expr, cat Catalog, workers int) float64 {
	t.Helper()
	col := obs.NewCollector()
	if _, err := StreamCountOpts(e, cat, StreamOptions{Workers: workers, Rec: col}); err != nil {
		t.Fatal(err)
	}
	peak := col.Metrics().Gauge(obs.MetricStreamPeakBytes).Value()
	if peak <= 0 {
		t.Fatal("stream peak gauge not recorded")
	}
	if col.Metrics().Counter(obs.MetricStreamBatches).Value() <= 0 {
		t.Fatal("stream batch counter not recorded")
	}
	return peak
}

// TestStreamMemoryCeiling is the constant-memory regression gate: growing
// the probe relation 10x must leave the pipeline's peak working set flat
// (same batches, same build side — only the number of batches grows).
func TestStreamMemoryCeiling(t *testing.T) {
	smallE, smallCat := streamFixture(4 * relation.BatchRows)
	largeE, largeCat := streamFixture(40 * relation.BatchRows)
	for _, workers := range []int{1, 4} {
		small := streamPeakBytes(t, smallE, smallCat, workers)
		large := streamPeakBytes(t, largeE, largeCat, workers)
		if large > 1.5*small {
			t.Errorf("workers=%d: peak working set grew with input: %v bytes at 10x vs %v bytes at 1x",
				workers, large, small)
		}
	}
}

// TestStreamCountErrors verifies the executor reports the materializing
// evaluator's exact errors for invalid trees.
func TestStreamCountErrors(t *testing.T) {
	cat := MapCatalog{}
	e := Base("missing", relation.MustSchema(relation.Column{Name: "a", Kind: relation.KindInt}))
	_, werr := Eval(e, cat)
	_, gerr := StreamCount(e, cat)
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Fatalf("error mismatch: Eval %v, StreamCount %v", werr, gerr)
	}
}
