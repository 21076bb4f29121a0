package dram

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hammertime/internal/sim"
)

// disturbWalk returns the retired per-victim disturbance walk of m: one
// disturbRow call per victim, each returning its own flip slice, and the
// subarray found by division. It is the oracle for the fused loop in
// disturbNeighbors (installed as Module.disturbOracle).
func disturbWalk(m *Module) func(bankIdx, row int, cycle uint64, actorDomain int) []FlipEvent {
	return func(bankIdx, row int, cycle uint64, actorDomain int) []FlipEvent {
		var flips []FlipEvent
		lo := row / m.subRows * m.subRows
		hi := lo + m.subRows
		for dist := 1; dist <= m.prof.BlastRadius; dist++ {
			amount := m.prof.DisturbanceAt(dist)
			if v := row - dist; v >= lo {
				flips = append(flips, disturbRow(m, bankIdx, v, row, amount, cycle, actorDomain)...)
			}
			if v := row + dist; v < hi {
				flips = append(flips, disturbRow(m, bankIdx, v, row, amount, cycle, actorDomain)...)
			}
		}
		return flips
	}
}

// disturbRow adds disturbance to one victim row and generates flips for
// any excess beyond the MAC.
func disturbRow(m *Module, bankIdx, victim, aggressor int, amount float64, cycle uint64, actorDomain int) []FlipEvent {
	idx := bankIdx*m.rows + victim
	old := m.disturb[idx]
	now := old + amount
	m.disturb[idx] = now

	mac := float64(m.prof.MAC)
	if now <= mac {
		return nil
	}
	excessDelta := now - mac
	if old > mac {
		excessDelta = now - old
	}
	expect := excessDelta * m.prof.FlipProb
	n := int(expect)
	if m.rng.Bool(expect - float64(n)) {
		n++
	}
	if n == 0 {
		return nil
	}
	bitSpace := m.geom.LineBytes * 8
	if m.eccOn {
		checkBytes := m.geom.LineBytes / 8
		if checkBytes > 8 {
			checkBytes = 8
		}
		bitSpace += checkBytes * 8
	}
	flips := make([]FlipEvent, 0, n)
	for i := 0; i < n; i++ {
		ev := FlipEvent{
			Bank:        bankIdx,
			Row:         victim,
			Subarray:    m.geom.SubarrayOf(victim),
			Column:      m.rng.Intn(m.geom.ColumnsPerRow),
			Bit:         m.rng.Intn(bitSpace),
			Cycle:       cycle,
			Aggressor:   aggressor,
			ActorDomain: actorDomain,
		}
		m.applyFlip(ev)
		flips = append(flips, ev)
	}
	return flips
}

// TestDisturbLoopMatchesPerVictimWalk drives the fused disturbance loop
// and the retired per-victim walk with the same random command streams
// and requires bit-identical modules: disturbance, ACT counts, flips
// (returned and recorded), line contents, stats and the next RNG draw.
// The streams concentrate ACTs on subarray-edge rows, cross the MAC,
// seed victims already beyond it, and run REFs so TRR cures fire — as
// internal recharges and as activateInternal cures — with ECC on and
// off, for power-of-two and other subarray sizes.
func TestDisturbLoopMatchesPerVictimWalk(t *testing.T) {
	for _, subRows := range []int{8, 6} {
		for _, ecc := range []bool{false, true} {
			for _, trr := range []string{"none", "recharge", "act"} {
				name := fmt.Sprintf("sub%d/ecc=%v/trr=%s", subRows, ecc, trr)
				t.Run(name, func(t *testing.T) {
					for seed := uint64(1); seed <= 4; seed++ {
						diffDisturbStream(t, subRows, ecc, trr, seed)
					}
				})
			}
		}
	}
}

func diffDisturbStream(t *testing.T, subRows int, ecc bool, trr string, seed uint64) {
	t.Helper()
	cfg := Config{
		Geometry: Geometry{Banks: 2, SubarraysPerBank: 4, RowsPerSubarray: subRows, ColumnsPerRow: 8, LineBytes: 64},
		Profile:  DisturbanceProfile{Name: "diff", MAC: 40, BlastRadius: 4, DistanceDecay: 0.6, FlipProb: 0.3},
		ECC:      ecc,
		Seed:     seed,
	}
	if trr != "none" {
		cfg.TRR = &TRRConfig{TrackerEntries: 4, MitigationsPerREF: 1, RefreshRadius: 2, CureThreshold: 4, CureWithACT: trr == "act"}
	}
	fast, err := NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewModule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.disturbOracle = disturbWalk(ref)

	rows := fast.rows
	// Hot rows: both edges of every subarray plus a few interior rows.
	var hot []int
	for lo := 0; lo < rows; lo += subRows {
		hot = append(hot, lo, lo+1, lo+subRows-1, lo+subRows/2)
	}
	rng := sim.NewRNG(seed * 7919)
	cycle := uint64(1)
	for op := 0; op < 6000; op++ {
		bank := rng.Intn(cfg.Geometry.Banks)
		row := hot[rng.Intn(len(hot))]
		if rng.Bool(0.1) {
			row = rng.Intn(rows)
		}
		switch p := rng.Intn(100); {
		case p < 85:
			domain := rng.Intn(3) - 1
			fa, errA := fast.Activate(bank, row, cycle, domain)
			fb, errB := ref.Activate(bank, row, cycle, domain)
			if (errA == nil) != (errB == nil) || !reflect.DeepEqual(fa, fb) {
				t.Fatalf("seed %d op %d: ACT(%d,%d) returned %v/%v, oracle %v/%v", seed, op, bank, row, fa, errA, fb, errB)
			}
		case p < 90:
			fast.Precharge(bank, cycle)
			ref.Precharge(bank, cycle)
		case p < 97:
			fast.Refresh(cycle)
			ref.Refresh(cycle)
		case p < 99:
			// A victim already beyond the MAC: the next ACT next to it
			// charges only its own increment.
			amount := float64(cfg.Profile.MAC) + 0.5 + float64(rng.Intn(3))
			fast.SeedDisturbance(bank, row, amount)
			ref.SeedDisturbance(bank, row, amount)
		default:
			fast.RefreshRow(bank, row)
			ref.RefreshRow(bank, row)
		}
		cycle += 1 + uint64(rng.Intn(60))
	}

	if fast.FlipCount() == 0 {
		t.Fatalf("seed %d: stream produced no flips; it does not exercise the excess path", seed)
	}
	if trr != "none" && fast.TRRStats() == 0 {
		t.Fatalf("seed %d: stream fired no TRR cures", seed)
	}
	for i := range fast.disturb {
		if math.Float64bits(fast.disturb[i]) != math.Float64bits(ref.disturb[i]) {
			t.Fatalf("seed %d: disturb[%d] = %v, oracle %v", seed, i, fast.disturb[i], ref.disturb[i])
		}
	}
	if !reflect.DeepEqual(fast.acts, ref.acts) || !reflect.DeepEqual(fast.open, ref.open) {
		t.Fatalf("seed %d: ACT counts or open rows differ from the oracle", seed)
	}
	if fast.FlipCount() != ref.FlipCount() || !reflect.DeepEqual(fast.Flips(), ref.Flips()) {
		t.Fatalf("seed %d: flips %d differ from the oracle's %d", seed, fast.FlipCount(), ref.FlipCount())
	}
	lines := fast.FlippedLines()
	if !reflect.DeepEqual(lines, ref.FlippedLines()) {
		t.Fatalf("seed %d: flipped lines differ from the oracle", seed)
	}
	for _, a := range lines {
		da, _ := fast.ReadLine(a)
		db, _ := ref.ReadLine(a)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("seed %d: line %+v = %x, oracle %x", seed, a, da, db)
		}
		if ecc && fast.checks[fast.lineKey(a)] != ref.checks[ref.lineKey(a)] {
			t.Fatalf("seed %d: line %+v check bits differ from the oracle", seed, a)
		}
	}
	if fast.stats.String() != ref.stats.String() {
		t.Fatalf("seed %d: stats differ:\n%s\noracle:\n%s", seed, fast.stats.String(), ref.stats.String())
	}
	if a, b := fast.rng.Uint64(), ref.rng.Uint64(); a != b {
		t.Fatalf("seed %d: next RNG draw %#x, oracle %#x", seed, a, b)
	}
}
