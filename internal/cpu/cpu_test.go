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
	s := core.AppendSamples(nil)
	if len(s) != 10 {
		t.Fatalf("samples = %d, want 10", len(s))
	}
	if got := core.AppendSamples(s[:0]); len(got) != 0 {
		t.Fatal("AppendSamples did not drain the ring")
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
	if core.samples != nil || core.AppendSamples(nil) != nil {
		t.Fatal("sampling ring allocated or filled without EnableSampling")
	}
	if core.Counters().LLCMisses != 2 {
		t.Fatalf("misses = %d, want 2", core.Counters().LLCMisses)
	}
}

// TestCoreSamplesRingKeepsNewest overfills the sample ring: AppendSamples must
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
	s := core.AppendSamples(nil)
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
	// Appending keeps what dst already holds.
	if s := core.AppendSamples([]uint64{7}); len(s) != 4 || s[0] != 7 || s[1] != n || s[3] != n+2 {
		t.Fatalf("samples after drain = %v, want [7 %d %d %d]", s, n, n+1, n+2)
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

// TestProgramFuncCalledAfterIssue checks that a core asks a ProgramFunc
// for its next access only after it has issued the previous one, at
// every MLP width: the function records the core's access count at each
// call, which must equal the number of accesses it has returned.
func TestProgramFuncCalledAfterIssue(t *testing.T) {
	for _, mlp := range []int{1, 3} {
		llc, mc := buildParts(t)
		var core *Core
		var seen []uint64
		prog := ProgramFunc(func() (Access, bool) {
			seen = append(seen, core.Counters().Accesses)
			if len(seen) > 20 {
				return Access{}, false
			}
			return Access{Line: uint64(len(seen) * 1000)}, true
		})
		var err error
		core, err = NewCore(0, 1, prog, llc, mc)
		if err != nil {
			t.Fatal(err)
		}
		core.MLP = mlp
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
		// A core that ends mid-batch asks once more on its next step.
		if len(seen) < 21 || len(seen) > 22 {
			t.Fatalf("MLP %d: program called %d times, want 21 or 22", mlp, len(seen))
		}
		for i, n := range seen {
			if want := uint64(min(i, 20)); n != want {
				t.Fatalf("MLP %d: call %d saw %d accesses issued, want %d", mlp, i, n, want)
			}
		}
	}
}

// batchProgram fills up to len(buf) accesses a call from a fixed list.
type batchProgram struct{ accs []Access }

func (b *batchProgram) Fill(buf []Access) int {
	n := copy(buf, b.accs)
	b.accs = b.accs[n:]
	return n
}

// TestCoreIssuesBatchInOrder runs the same accesses through a program
// that fills in batches and one that fills one at a time: the cores must
// end in the same state at the same cycle.
func TestCoreIssuesBatchInOrder(t *testing.T) {
	var accs []Access
	for i := 0; i < 3*BatchLen+5; i++ {
		accs = append(accs, Access{Line: uint64(i * 977 % 5000), Write: i%3 == 0, Flush: i%7 == 0, Think: uint64(i % 4)})
	}
	run := func(p Program) (uint64, PerfCounters) {
		llc, mc := buildParts(t)
		core, err := NewCore(0, 1, p, llc, mc)
		if err != nil {
			t.Fatal(err)
		}
		core.MLP = 2
		now := uint64(0)
		for {
			next, ok, err := core.Step(now)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return now, core.Counters()
			}
			now = next
		}
	}
	endB, cB := run(&batchProgram{accs: accs})
	endF, cF := run(fixedProgram(accs))
	if endB != endF || cB != cF {
		t.Fatalf("batched run ended at %d with %+v, one-at-a-time at %d with %+v", endB, cB, endF, cF)
	}
	if cB.Accesses != uint64(len(accs)) {
		t.Fatalf("accesses = %d, want %d", cB.Accesses, len(accs))
	}
}
