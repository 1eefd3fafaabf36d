package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]atomic.Int64, n)
		For(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForSmallN(t *testing.T) {
	ran := false
	For(0, 4, func(int) { ran = true })
	if ran {
		t.Fatal("For(0, ...) ran a task")
	}
	For(1, 4, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("For(1, ...) did not run task 0")
	}
}

func TestForErrReturnsLowestIndexedError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := ForErrRec(100, workers, nil, func(i int) error {
			if i == 97 || i == 13 || i == 40 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 13" {
			t.Fatalf("workers=%d: got %v, want task 13", workers, err)
		}
	}
	if err := ForErrRec(10, 4, nil, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error %v", err)
	}
	want := errors.New("boom")
	if err := ForErrRec(1, 1, nil, func(int) error { return want }); err != want {
		t.Fatalf("got %v, want %v", err, want)
	}
}

func TestResolveAndSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	if got := Resolve(5); got != 5 {
		t.Fatalf("Resolve(5) = %d", got)
	}
	SetWorkers(3)
	if got := Resolve(0); got != 3 {
		t.Fatalf("Resolve(0) with default 3 = %d", got)
	}
	SetWorkers(0)
	if got := Resolve(0); got < 1 {
		t.Fatalf("Resolve(0) with GOMAXPROCS default = %d", got)
	}
}
