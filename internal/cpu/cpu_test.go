package cpu

import (
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/cache"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

func buildParts(t *testing.T) (*cache.Cache, *memctrl.Controller) {
	t.Helper()
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memctrl.NewController(memctrl.Config{
		Mapper:   addr.NewLineInterleave(mod.Geometry()),
		DRAM:     mod,
		OpenPage: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	llc, err := cache.New(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return llc, mc
}

func fixedProgram(accs []Access) Program {
	i := 0
	return ProgramFunc(func() (Access, bool) {
		if i >= len(accs) {
			return Access{}, false
		}
		a := accs[i]
		i++
		return a, true
	})
}

func TestNewCoreValidates(t *testing.T) {
	llc, mc := buildParts(t)
	if _, err := NewCore(0, 1, nil, llc, mc); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := NewCore(0, 1, fixedProgram(nil), nil, mc); err == nil {
		t.Fatal("nil cache accepted")
	}
}

func TestCoreCachesRepeatedAccess(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram([]Access{{Line: 5}, {Line: 5}, {Line: 5}}), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	c := core.Counters()
	if c.Accesses != 3 || c.LLCMisses != 1 {
		t.Fatalf("accesses=%d misses=%d, want 3/1", c.Accesses, c.LLCMisses)
	}
	if !core.Done() {
		t.Fatal("core not done")
	}
}

func TestCoreFlushForcesDRAMAccess(t *testing.T) {
	llc, mc := buildParts(t)
	prog := fixedProgram([]Access{
		{Line: 5}, {Line: 5, Flush: true}, {Line: 5, Flush: true},
	})
	core, err := NewCore(0, 1, prog, llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	c := core.Counters()
	if c.LLCMisses != 3 {
		t.Fatalf("misses = %d, want 3 (flush evicts every time)", c.LLCMisses)
	}
	if c.Flushes != 2 {
		t.Fatalf("flushes = %d", c.Flushes)
	}
}

func TestCoreDirtyFlushWritesBack(t *testing.T) {
	llc, mc := buildParts(t)
	prog := fixedProgram([]Access{
		{Line: 5, Write: true}, {Line: 5, Flush: true},
	})
	core, err := NewCore(0, 1, prog, llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	if got := mc.Stats().Counter("mc.writes"); got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestCoreThinkTimeAdvancesClock(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram([]Access{{Line: 1, Think: 5000}}), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	next, ok, err := core.Step(0)
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if next < 5000 {
		t.Fatalf("next ready = %d, want >= think time", next)
	}
}

func TestCoreSamplesCaptureMisses(t *testing.T) {
	llc, mc := buildParts(t)
	var accs []Access
	for i := 0; i < 10; i++ {
		accs = append(accs, Access{Line: uint64(i * 1000)})
	}
	core, err := NewCore(0, 1, fixedProgram(accs), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	core.EnableSampling()
	now := uint64(0)
	for {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	s := core.Samples()
	if len(s) != 10 {
		t.Fatalf("samples = %d, want 10", len(s))
	}
	if got := core.Samples(); len(got) != 0 {
		t.Fatal("Samples did not drain the ring")
	}
}

// TestCoreSamplingOffByDefault checks that a core without a PMU reader
// keeps no sample ring: misses are counted but not sampled.
func TestCoreSamplingOffByDefault(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram([]Access{{Line: 0}, {Line: 1000}}), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	for now := uint64(0); ; {
		next, ok, err := core.Step(now)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		now = next
	}
	if core.samples != nil || core.Samples() != nil {
		t.Fatal("sampling ring allocated or filled without EnableSampling")
	}
	if core.Counters().LLCMisses != 2 {
		t.Fatalf("misses = %d, want 2", core.Counters().LLCMisses)
	}
}

// TestCoreSamplesRingKeepsNewest overfills the sample ring: Samples must
// return exactly the last sampleCap misses, oldest first, and the ring
// must refill cleanly after the drain.
func TestCoreSamplesRingKeepsNewest(t *testing.T) {
	llc, mc := buildParts(t)
	const n = sampleCap + 44
	var accs []Access
	for i := 0; i < n+3; i++ {
		accs = append(accs, Access{Line: uint64(i), Flush: true})
	}
	core, err := NewCore(0, 1, fixedProgram(accs), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	core.EnableSampling()
	now := uint64(0)
	step := func() {
		next, ok, err := core.Step(now)
		if err != nil || !ok {
			t.Fatal(err, ok)
		}
		now = next
	}
	for i := 0; i < n; i++ {
		step()
	}
	s := core.Samples()
	if len(s) != sampleCap {
		t.Fatalf("samples = %d, want %d", len(s), sampleCap)
	}
	for i, line := range s {
		if want := uint64(n - sampleCap + i); line != want {
			t.Fatalf("sample %d = %d, want %d (most recent last)", i, line, want)
		}
	}
	for i := 0; i < 3; i++ {
		step()
	}
	if s := core.Samples(); len(s) != 3 || s[0] != n || s[2] != n+2 {
		t.Fatalf("samples after drain = %v, want [%d %d %d]", s, n, n+1, n+2)
	}
}

func TestCoreStepAfterDone(t *testing.T) {
	llc, mc := buildParts(t)
	core, err := NewCore(0, 1, fixedProgram(nil), llc, mc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := core.Step(0); ok {
		t.Fatal("empty program stepped")
	}
	if _, ok, _ := core.Step(0); ok {
		t.Fatal("done core stepped again")
	}
}
