// The fuzz target lives in the external test package so it can import
// internal/check (which imports memctrl) without a cycle.
package memctrl_test

import (
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/check"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

// FuzzControllerStream decodes arbitrary bytes into a controller command
// stream — requests, idle jumps across refresh epochs, targeted
// refreshes — over a fuzz-chosen mitigation mix, with the invariant
// auditor chained in. Any online invariant violation or end-of-run
// shadow/counter disagreement fails.
func FuzzControllerStream(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 16, 200, 1, 0, 32, 9, 9, 9})
	f.Add(uint64(3), []byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 255, 255, 255})
	f.Add(uint64(7), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		geom := dram.Geometry{Banks: 4, SubarraysPerBank: 4, RowsPerSubarray: 16, ColumnsPerRow: 16, LineBytes: 64}
		tim := dram.DDR4Timing()
		prof := dram.DisturbanceProfile{Name: "fuzz", MAC: 48, BlastRadius: 2, DistanceDecay: 0.5, FlipProb: 0.05}
		mod, err := dram.NewModule(dram.Config{Geometry: geom, Timing: tim, Profile: prof, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cfg := memctrl.Config{
			Mapper:   addr.NewLineInterleave(geom),
			DRAM:     mod,
			OpenPage: seed&8 == 0,
		}
		if seed&1 != 0 {
			para, err := memctrl.NewPARA(0.25, 2, seed>>8)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Plugins = append(cfg.Plugins, para)
		}
		if seed&2 != 0 {
			cfg.Plugins = append(cfg.Plugins, memctrl.NewGraphene(geom.Banks, 32, 64, 2))
		}
		if seed&4 != 0 {
			cfg.Plugins = append(cfg.Plugins, memctrl.NewRateLimiter(geom, 64, 100_000, 32))
		}
		mc, err := memctrl.NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		aud := check.New(check.Config{Geometry: geom, Timing: tim, Profile: prof})
		rec := aud.Chain(nil)
		mod.SetRecorder(rec)
		mc.SetRecorder(rec)

		now := uint64(0)
		total := geom.TotalLines()
		for i := 0; i+4 <= len(data); i += 4 {
			op := data[i]
			arg := uint64(data[i+1]) | uint64(data[i+2])<<8 | uint64(data[i+3])<<16
			switch op % 16 {
			case 0:
				now += tim.TREFI * (arg%64 + 1)
				mc.AdvanceTo(now)
			case 1:
				if res, err := mc.RefreshInstruction(arg%total, op&16 != 0, 0, now); err == nil {
					now = res.Completion
				}
			case 2:
				if res, err := mc.RefreshNeighborsCmd(arg%total, 1+int(op>>4)%3, 0, now); err == nil {
					now = res.Completion
				}
			default:
				res, err := mc.ServeRequest(memctrl.Request{Line: arg % total, Domain: int(op>>4) % 3}, now)
				if err != nil {
					t.Fatalf("op %d: %v", i/4, err)
				}
				if op&32 != 0 {
					now = res.Completion
				} else {
					now += uint64(op)
				}
			}
		}
		mc.AdvanceTo(now + tim.TREFI)
		if err := aud.Verify(mod, mc); err != nil {
			t.Fatalf("stream (seed %d, %d ops): %v", seed, len(data)/4, err)
		}
	})
}
