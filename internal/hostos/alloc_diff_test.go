package hostos

import (
	"fmt"
	"strings"
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// allocPair is one policy built both ways: lazily (the shipped
// allocator) and eagerly (the reference in alloc_eager_test.go).
type allocPair struct {
	name        string
	lazy, eager func() (Allocator, error)
}

func diffMappers(t *testing.T, g dram.Geometry) []addr.Mapper {
	t.Helper()
	part, err := addr.NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := addr.NewSubarrayIsolated(addr.NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	return []addr.Mapper{addr.NewRowRegion(g), addr.NewLineInterleave(g), iso}
}

func diffPairs(m addr.Mapper) []allocPair {
	g := m.Geometry()
	pairs := []allocPair{
		{"linear",
			func() (Allocator, error) { return NewLinear(g), nil },
			func() (Allocator, error) { return newEagerLinear(g), nil }},
		{"bank-aware(4)",
			func() (Allocator, error) { return NewBankAware(m, 4) },
			func() (Allocator, error) { return newEagerBankAware(m, 4) }},
		{"bank-aware(2)",
			func() (Allocator, error) { return NewBankAware(m, 2) },
			func() (Allocator, error) { return newEagerBankAware(m, 2) }},
	}
	for _, radius := range []int{1, 2} {
		r := radius
		pairs = append(pairs, allocPair{fmt.Sprintf("guard-row(%d)", r),
			func() (Allocator, error) { return NewGuardRow(m, r) },
			func() (Allocator, error) { return newEagerGuardRow(m, r) }})
	}
	if iso, ok := m.(*addr.SubarrayIsolated); ok {
		pairs = append(pairs, allocPair{"subarray-aware",
			func() (Allocator, error) { return NewSubarrayAware(iso) },
			func() (Allocator, error) { return newEagerSubarrayAware(iso) }})
	}
	return pairs
}

// allocTrace drives a with a seeded stream of Alloc, Free and (where
// supported) AllocRandom calls and returns one line per call: the frame
// handed out or freed, or the error. Frees mostly return a live frame,
// but also double-free, free frames never handed out, and free past the
// end of the module.
func allocTrace(a Allocator, seed uint64, steps int, frames uint64) []string {
	rng := sim.NewRNG(seed)
	pick := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15) // the AllocRandom draws
	ra, random := a.(RandomAllocator)
	var live []uint64
	out := make([]string, 0, steps)
	for i := 0; i < steps; i++ {
		domain := 1 + rng.Intn(5)
		switch op := rng.Intn(20); {
		case op < 12 || (op < 15 && !random):
			f, err := a.Alloc(domain)
			if err == nil {
				live = append(live, f)
			}
			out = append(out, fmt.Sprintf("alloc(%d) %d %v", domain, f, err))
		case op < 15:
			f, err := ra.AllocRandom(domain, pick)
			if err == nil {
				live = append(live, f)
			}
			out = append(out, fmt.Sprintf("random(%d) %d %v", domain, f, err))
		case op < 19 && len(live) > 0:
			j := rng.Intn(len(live))
			f := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, fmt.Sprintf("free %d %v", f, a.Free(f)))
		default:
			// Any frame of the module (live, freed or never allocated)
			// or one past its end.
			f := rng.Uint64n(frames + 1)
			err := a.Free(f)
			if err == nil {
				for j, l := range live {
					if l == f {
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						break
					}
				}
			}
			out = append(out, fmt.Sprintf("free* %d %v", f, err))
		}
	}
	return out
}

// TestLazyPoolsMatchEagerReference checks that every lazily classified
// allocator hands out the same frames in the same order, and fails with
// the same errors, as the eager allocator it replaced: under row-region,
// line-interleave and subarray-isolated mappers, on a small module
// (streams run the pools dry) and on the default one.
func TestLazyPoolsMatchEagerReference(t *testing.T) {
	small := dram.Geometry{Banks: 4, SubarraysPerBank: 4, RowsPerSubarray: 8, ColumnsPerRow: 64, LineBytes: 64}
	var ctorErrs, ooms, badFrees int
	for _, geo := range []struct {
		name  string
		g     dram.Geometry
		steps int
	}{{"small", small, 600}, {"default", dram.DefaultGeometry(), 1500}} {
		for _, m := range diffMappers(t, geo.g) {
			for _, p := range diffPairs(m) {
				name := fmt.Sprintf("%s/%s/%s", geo.name, m.Name(), p.name)
				lazy, lerr := p.lazy()
				eager, eerr := p.eager()
				if fmt.Sprint(lerr) != fmt.Sprint(eerr) {
					t.Fatalf("%s: construction error %v, reference %v", name, lerr, eerr)
				}
				if lerr != nil {
					ctorErrs++
					continue
				}
				for seed := uint64(1); seed <= 3; seed++ {
					got := allocTrace(lazy, seed, geo.steps, TotalFrames(geo.g))
					want := allocTrace(eager, seed, geo.steps, TotalFrames(geo.g))
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s seed %d step %d: %q, reference %q", name, seed, i, got[i], want[i])
						}
						if strings.Contains(want[i], "out of memory") {
							ooms++
						}
						if strings.HasPrefix(want[i], "free") && !strings.HasSuffix(want[i], "<nil>") {
							badFrees++
						}
					}
				}
			}
		}
	}
	// The streams must reach every error path they claim to cover.
	if ctorErrs == 0 || ooms == 0 || badFrees == 0 {
		t.Fatalf("streams missed an error path: %d construction errors, %d OOMs, %d rejected frees",
			ctorErrs, ooms, badFrees)
	}
}
