//go:build !race

package wsrs

import "testing"

// gridDispatchAllocBudget is the allocation count of one RunGrid call
// over dispatchCells once the trace cache and the engine pool are
// warm. The race detector makes sync.Pool drop entries at random, so
// this file builds only without it.
const gridDispatchAllocBudget = 31

func TestGridDispatchAllocBudget(t *testing.T) {
	for _, par := range []int{0, 1} {
		avg := testing.AllocsPerRun(50, func() {
			if _, err := RunGrid(dispatchCells, dispatchOpts, par); err != nil {
				t.Fatal(err)
			}
		})
		if avg > gridDispatchAllocBudget {
			t.Errorf("parallelism %d: RunGrid allocates %.0f times per 4-cell grid, budget %d",
				par, avg, gridDispatchAllocBudget)
		}
	}
}
