package core

import (
	"testing"

	"hammertime/internal/sim"
)

// TestReleaseIsIdempotentAndInert pins the Release contract: a second
// Release hands nothing back twice (so no two machines ever share an
// array), and a released machine's LLC and DRAM panic on use instead of
// reading state that now belongs to another machine.
func TestReleaseIsIdempotentAndInert(t *testing.T) {
	sim.DrainFreeLists()
	defer sim.DrainFreeLists()
	m, err := NewMachine(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release()

	before := sim.RecycledArrays()
	a, err := NewMachine(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sim.RecycledArrays() == before {
		t.Fatal("a machine built after Release reused no array")
	}
	before = sim.RecycledArrays()
	b, err := NewMachine(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if n := sim.RecycledArrays() - before; n != 0 {
		t.Fatalf("second machine reused %d arrays: the double Release handed them back twice", n)
	}
	a.Release()
	b.Release()

	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Release did not panic", what)
			}
		}()
		f()
	}
	mustPanic("Cache.Access", func() { m.Cache.Access(0, false) })
	mustPanic("Module.Activate", func() { _, _ = m.DRAM.Activate(0, 0, 0, -1) })
}
