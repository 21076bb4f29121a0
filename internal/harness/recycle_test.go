package harness

import (
	"context"
	"slices"
	"testing"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/sim"
)

// TestRecycledCellsMatchFresh runs E1 cells A, B, A in one process, so B
// and the second A build their machines and tenant frame lists from the
// arrays the previous cell released, and requires each to match a build
// from fresh allocations: the full stats digest and the flip counts.
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
		// The cell handed its tenants' frame lists back for the next one.
		frames, reused := tenantLines.Get(170)
		if !reused {
			t.Fatalf("cell %d %v released no tenant frame list", i, c)
		}
		tenantLines.Put(frames)
	}
}

// TestReleaseTenants checks the tenant frame lists' recycling contract:
// release nils every list and hands each back once however often it is
// called, and tenants set up on the released lists see exactly the lines
// a fresh set-up gives.
func TestReleaseTenants(t *testing.T) {
	defer sim.DrainFreeLists()
	setup := func() ([]Tenant, func()) {
		t.Helper()
		m, err := core.NewMachine(E1Spec())
		if err != nil {
			t.Fatal(err)
		}
		tenants, err := SetupTenants(m, 2, 40)
		if err != nil {
			t.Fatal(err)
		}
		return tenants, m.Release
	}
	sim.DrainFreeLists()
	first, release := setup()
	want := make([][]uint64, len(first))
	arrays := map[*uint64]bool{}
	for i, tn := range first {
		want[i] = slices.Clone(tn.Lines.Frames)
		arrays[&tn.Lines.Frames[0]] = true
	}
	ReleaseTenants(first)
	ReleaseTenants(first) // idempotent: nothing handed back twice
	release()
	for i, tn := range first {
		if tn.Lines.Frames != nil {
			t.Fatalf("tenant %d keeps %d frames after release", i, len(tn.Lines.Frames))
		}
	}

	again, release := setup()
	defer release()
	for i, tn := range again {
		if !slices.Equal(tn.Lines.Frames, want[i]) {
			t.Fatalf("tenant %d on a recycled list differs from the fresh set-up", i)
		}
		if !arrays[&tn.Lines.Frames[0]] {
			t.Fatalf("tenant %d did not reuse a released list", i)
		}
		delete(arrays, &tn.Lines.Frames[0]) // each released list serves one tenant
	}
	if l, reused := tenantLines.Get(40); reused {
		t.Fatalf("a list of %d frames was handed back twice", len(l))
	}
}
