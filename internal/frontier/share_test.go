package frontier

import (
	"reflect"
	"sync"
	"testing"
)

// TestCellsShareOneTrace runs one cell per condition concurrently on a
// single shared trace, as Run does for every cell at a scale. Each cell
// must equal the same cell run alone on a freshly generated trace, and
// the shared trace must come out equal to a fresh one: no run may write
// the trace it replays. Under -race this also checks that the runs only
// read it.
func TestCellsShareOneTrace(t *testing.T) {
	m := Default(true).withDefaults()
	comp, router, scale := m.Compositions[0], m.Routers[0], m.Scales[1]
	conds := []string{Steady, Failure, Autoscale, Drain, DrainMigrate}
	offer := func() offered {
		t.Helper()
		o, err := m.offer(scale)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	want := make([]Cell, len(conds))
	for i, cond := range conds {
		var err error
		if want[i], err = m.runCell(comp, cond, router, offer()); err != nil {
			t.Fatal(err)
		}
	}

	shared := offer()
	got := make([]Cell, len(conds))
	errs := make([]error, len(conds))
	var wg sync.WaitGroup
	for i, cond := range conds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = m.runCell(comp, cond, router, shared)
		}()
	}
	wg.Wait()
	for i, cond := range conds {
		if errs[i] != nil {
			t.Fatalf("%s: %v", cond, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s on the shared trace:\n got %+v\nwant %+v", cond, got[i], want[i])
		}
	}
	if fresh := offer(); !reflect.DeepEqual(shared, fresh) {
		t.Error("a run wrote the shared trace: it no longer equals a freshly generated one")
	}
}
