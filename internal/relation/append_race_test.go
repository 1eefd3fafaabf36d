package relation

import (
	"fmt"
	"sync"
	"testing"
)

// TestViewsReadWhileBaseAppends reads views of a base relation from
// several goroutines while one goroutine keeps appending to that base —
// strings the dictionary has not seen and nulls in 64-row blocks a view
// already covers — and codes, filters and compares the views' cells. An
// append may touch no memory a live view reads (run under -race), and
// every view keeps its rows.
func TestViewsReadWhileBaseAppends(t *testing.T) {
	schema := MustSchema(Column{Name: "s", Kind: KindString}, Column{Name: "a", Kind: KindInt})
	base := New("R", schema)
	row := func(i int) Tuple {
		s, a := Str(fmt.Sprint("v", i)), Int(int64(i%7))
		if i%3 == 0 {
			s = Null()
		}
		if i%5 == 0 {
			a = Null()
		}
		return Tuple{s, a}
	}
	for i := 0; i < 37; i++ {
		base.MustAppend(row(i))
	}
	var views []*Relation
	for n := 1; n <= base.Len(); n += 9 {
		views = append(views, base.Subset("V", seq(n)))
	}
	want := make([][]string, len(views))
	for k, v := range views {
		for i := 0; i < v.Len(); i++ {
			want[k] = append(want[k], v.Row(i).String())
		}
	}
	var wg sync.WaitGroup
	for k, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				dom := NewMemoKeyDomain()
				v.Clone("C").KeyCodes([]int{0, 1}, dom)
				v.FilterCmp(seq(v.Len()), 0, Str("v1"), [3]bool{false, true, false})
				for i := 0; i < v.Len(); i++ {
					if got := v.Row(i).String(); got != want[k][i] {
						t.Errorf("view %d row %d reads %s, held %s", k, i, got, want[k][i])
						return
					}
					equalCells(&v.cols[0], v.phys(i), &views[0].cols[0], 0)
				}
			}
		}()
	}
	for i := 37; i < 2000; i++ {
		base.MustAppend(row(i))
	}
	wg.Wait()
}
