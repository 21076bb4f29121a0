package harness

import (
	"context"
	"testing"

	"hammertime/internal/attack"
	"hammertime/internal/defense"
	"hammertime/internal/sim"
)

// TestRecycledCellsMatchFresh runs E1 cells A, B, A in one process, so B
// and the second A build their machines from the arrays the previous
// cell released, and requires each to match a build from fresh
// allocations: the full stats digest and the flip counts.
func TestRecycledCellsMatchFresh(t *testing.T) {
	type cell struct{ defense, attack string }
	type result struct {
		digest            string
		flips, crossFlips uint64
	}
	run := func(c cell) result {
		t.Helper()
		d, err := defense.New(c.defense)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range attack.Catalog(12) {
			if kind.Name == c.attack {
				out, err := RunAttackCtx(context.Background(), E1Spec(), d, kind, AttackOpts{Horizon: 1_000_000})
				if err != nil {
					t.Fatal(err)
				}
				return result{statsDigest(t, &out.Result.Stats), out.Flips, out.CrossFlips}
			}
		}
		t.Fatalf("no attack %q in the catalog", c.attack)
		return result{}
	}
	a := cell{"none", "double-sided"}
	b := cell{"para", "dma-double-sided"}
	defer sim.DrainFreeLists()

	fresh := map[cell]result{}
	for _, c := range []cell{a, b} {
		sim.DrainFreeLists()
		fresh[c] = run(c)
		if fresh[c].flips == 0 {
			t.Fatalf("%v: no flips; the cell exercises too little state", c)
		}
	}

	sim.DrainFreeLists()
	for i, c := range []cell{a, b, a} {
		before := sim.RecycledArrays()
		got := run(c)
		if reused := sim.RecycledArrays() - before; i > 0 && reused == 0 {
			t.Fatalf("cell %d %v reused no released array", i, c)
		}
		if got != fresh[c] {
			t.Errorf("cell %d %v on recycled arrays = %+v, fresh build %+v", i, c, got, fresh[c])
		}
	}
}
