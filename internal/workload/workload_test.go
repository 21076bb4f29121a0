package workload

import (
	"slices"
	"testing"

	"hammertime/internal/cpu"
	"hammertime/internal/sim"
)

func drain(t *testing.T, p cpu.Program, max int) []cpu.Access {
	t.Helper()
	return drainBy(t, p, max, cpu.BatchLen)
}

// drainBy collects a program's accesses filling batch at a time.
func drainBy(t *testing.T, p cpu.Program, max, batch int) []cpu.Access {
	t.Helper()
	var out []cpu.Access
	buf := make([]cpu.Access, batch)
	for len(out) <= max {
		n := p.Fill(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
	t.Fatalf("program did not finish within %d accesses", max)
	return nil
}

func TestStreamSequentialWrap(t *testing.T) {
	p, err := Stream(Flat([]uint64{10, 11, 12}), 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	accs := drain(t, p, 100)
	if len(accs) != 7 {
		t.Fatalf("accesses = %d", len(accs))
	}
	want := []uint64{10, 11, 12, 10, 11, 12, 10}
	for i, a := range accs {
		if a.Line != want[i] {
			t.Fatalf("access %d line = %d, want %d", i, a.Line, want[i])
		}
		if a.Think != 5 {
			t.Fatalf("think = %d", a.Think)
		}
	}
}

func TestStreamValidates(t *testing.T) {
	if _, err := Stream(Lines{}, 10, 0); err == nil {
		t.Fatal("empty lines accepted")
	}
}

func TestRandomStaysInRangeAndWrites(t *testing.T) {
	lines := Flat([]uint64{1, 2, 3, 4})
	rng := sim.NewRNG(9)
	p, err := Random(lines, 1000, 0, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	valid := map[uint64]bool{1: true, 2: true, 3: true, 4: true}
	for _, a := range drain(t, p, 2000) {
		if !valid[a.Line] {
			t.Fatalf("line %d outside the working set", a.Line)
		}
		if a.Write {
			writes++
		}
	}
	if writes < 350 || writes > 650 {
		t.Fatalf("writes = %d/1000, want ~500", writes)
	}
}

func TestRandomValidates(t *testing.T) {
	if _, err := Random(Flat([]uint64{1}), 1, 0, 0, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := Random(Lines{}, 1, 0, 0, sim.NewRNG(1)); err == nil {
		t.Fatal("empty lines accepted")
	}
}

func TestPointerChaseVisitsAllLines(t *testing.T) {
	lines := Flat([]uint64{10, 20, 30, 40, 50})
	p, err := PointerChase(lines, 5, 0, sim.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, a := range drain(t, p, 10) {
		seen[a.Line] = true
	}
	if len(seen) != 5 {
		t.Fatalf("one period visited %d distinct lines, want 5", len(seen))
	}
}

func TestMixInterleavesAndFinishes(t *testing.T) {
	a, err := Stream(Flat([]uint64{1}), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stream(Flat([]uint64{2}), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	accs := drain(t, Mix(a, b), 100)
	if len(accs) != 6 {
		t.Fatalf("mixed accesses = %d, want 6", len(accs))
	}
	if accs[0].Line != 1 || accs[1].Line != 2 || accs[2].Line != 1 || accs[3].Line != 2 {
		t.Fatalf("mix order wrong: %+v", accs[:4])
	}
	// After a finishes, the rest must come from b.
	if accs[4].Line != 2 || accs[5].Line != 2 {
		t.Fatal("mix did not drain the surviving program")
	}
}

func TestLimitTruncates(t *testing.T) {
	s, err := Stream(Flat([]uint64{1}), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(drain(t, Limit(s, 3), 10)); got != 3 {
		t.Fatalf("limited to %d accesses, want 3", got)
	}
}

func TestZipfianSkewConcentratesHead(t *testing.T) {
	lines := make([]uint64, 1000)
	for i := range lines {
		lines[i] = uint64(i)
	}
	p, err := Zipfian(Flat(lines), 20000, 0, 0.99, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	headHits := 0
	total := 0
	for _, a := range drain(t, p, 20000) {
		total++
		if a.Line < 100 { // hottest 10% of the working set
			headHits++
		}
	}
	if total != 20000 {
		t.Fatalf("total = %d", total)
	}
	frac := float64(headHits) / float64(total)
	if frac < 0.5 {
		t.Fatalf("head fraction = %.2f, want > 0.5 under zipf(0.99)", frac)
	}
}

func TestZipfianValidates(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := Zipfian(Lines{}, 1, 0, 0.99, rng); err == nil {
		t.Fatal("empty lines accepted")
	}
	if _, err := Zipfian(Flat([]uint64{1}), 1, 0, 0, rng); err == nil {
		t.Fatal("zero skew accepted")
	}
	if _, err := Zipfian(Flat([]uint64{1}), 1, 0, 0.99, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// TestPagedLinesMatchFlat checks that every generator emits exactly the
// same accesses over paged Lines as over their explicit expansion: the
// frame form changes how lines are stored, never which are touched.
func TestPagedLinesMatchFlat(t *testing.T) {
	paged := Lines{Frames: []uint64{7, 3, 1 << 20, 12, 0}, Shift: 6}
	flat := make([]uint64, paged.Len())
	for i := range flat {
		flat[i] = paged.At(i)
	}
	if flat[0] != 7<<6 || flat[64+5] != 3<<6|5 || flat[len(flat)-1] != 63 {
		t.Fatalf("paged expansion wrong: %d %d %d", flat[0], flat[64+5], flat[len(flat)-1])
	}
	gens := map[string]func(Lines) (cpu.Program, error){
		"stream": func(l Lines) (cpu.Program, error) { return Stream(l, 700, 3) },
		"random": func(l Lines) (cpu.Program, error) { return Random(l, 700, 0, 0.3, sim.NewRNG(5)) },
		"chase":  func(l Lines) (cpu.Program, error) { return PointerChase(l, 700, 0, sim.NewRNG(6)) },
		"zipf":   func(l Lines) (cpu.Program, error) { return Zipfian(l, 700, 0, 0.9, sim.NewRNG(7)) },
	}
	for name, gen := range gens {
		p, err := gen(paged)
		if err != nil {
			t.Fatal(err)
		}
		f, err := gen(Flat(flat))
		if err != nil {
			t.Fatal(err)
		}
		got, want := drain(t, p, 1000), drain(t, f, 1000)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: paged accesses differ from the flat expansion", name)
		}
	}
}
