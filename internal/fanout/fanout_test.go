package fanout

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestRun drives every promise of Run from one table. In the parallel
// cases the first min(workers, n) jobs wait for each other before they
// return, which holds exactly that many goroutines inside fn at once, and
// the lowest failing job returns only after every other failing job has,
// so it is the last to fail in time and must still be the one reported.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		n, workers int
		fail       []int // indices whose fn returns an error
		wantErr    int   // index whose error Run returns, -1 for nil
		wantRan    int   // jobs started: exactly, or at least if atLeast
		atLeast    bool
	}{
		{name: "no jobs", n: 0, workers: 4, wantErr: -1, wantRan: 0},
		{name: "no jobs inline", n: 0, workers: 1, wantErr: -1, wantRan: 0},
		{name: "inline one worker", n: 5, workers: 1, wantErr: -1, wantRan: 5},
		{name: "inline zero workers", n: 5, workers: 0, wantErr: -1, wantRan: 5},
		{name: "inline negative workers", n: 5, workers: -3, wantErr: -1, wantRan: 5},
		{name: "inline stops at first failure", n: 5, workers: 1, fail: []int{2, 4}, wantErr: 2, wantRan: 3},
		{name: "one job many workers", n: 1, workers: 8, wantErr: -1, wantRan: 1},
		{name: "more workers than jobs", n: 3, workers: 8, wantErr: -1, wantRan: 3},
		{name: "every index once", n: 1000, workers: 4, wantErr: -1, wantRan: 1000},
		{name: "nothing starts after a failure", n: 100, workers: 4, fail: []int{0, 1, 2, 3}, wantErr: 0, wantRan: 4},
		{name: "lowest failing index wins", n: 100, workers: 4, fail: []int{1, 3}, wantErr: 1, wantRan: 4, atLeast: true},
		{name: "failure in the last job", n: 4, workers: 4, fail: []int{3}, wantErr: 3, wantRan: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wave := min(c.workers, c.n)
			var gate, others sync.WaitGroup
			if wave > 1 {
				gate.Add(wave)
				for _, f := range c.fail[min(1, len(c.fail)):] {
					if f < wave {
						others.Add(1)
					}
				}
			}
			var mu sync.Mutex
			var order []int
			err := Run(c.n, c.workers, func(i int) error {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
				if wave > 1 && i < wave {
					gate.Done()
					gate.Wait()
				}
				if !slices.Contains(c.fail, i) {
					return nil
				}
				if wave > 1 {
					if i == c.fail[0] {
						others.Wait()
					} else if i < wave {
						defer others.Done()
					}
				}
				return fmt.Errorf("job %d", i)
			})

			switch {
			case c.wantErr < 0 && err != nil:
				t.Fatalf("got %v, want no error", err)
			case c.wantErr >= 0 && (err == nil || err.Error() != fmt.Sprintf("job %d", c.wantErr)):
				t.Fatalf("got %v, want the error of job %d", err, c.wantErr)
			}
			if len(order) != c.wantRan && !(c.atLeast && len(order) > c.wantRan) {
				t.Fatalf("%d jobs started, want %d (at least: %v)", len(order), c.wantRan, c.atLeast)
			}
			if wave <= 1 {
				for k, i := range order {
					if i != k {
						t.Fatalf("inline run went in order %v", order)
					}
				}
			}
			slices.Sort(order)
			for k, i := range order {
				// Claimed in order and at most once each: the started jobs
				// are a prefix of the indices.
				if i != k {
					t.Fatalf("started jobs are not each index once from 0: %v", order)
				}
			}
		})
	}
}
