package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/sim"
)

// planGolden pins, per sim.DeterminismEpoch and per E1 defense, the
// digest of every attack plan that defense's cells start from: all of
// attack.Catalog(12) on machine seeds 1-3, with E1's default tenants.
// A plan is the whole of an allocator's and planner's influence on a
// cell — which frames each tenant got and which lines the attacker
// hammers — so set-up work on either must leave these unchanged.
//
// A result-changing fix bumps sim.DeterminismEpoch and adds the new
// epoch's digests here, deliberately; the failure message prints them.
var planGolden = map[int]map[string]string{
	2: {
		"none":        "9786a0f25d174447",
		"trr":         "9786a0f25d174447",
		"para":        "9786a0f25d174447",
		"graphene":    "9786a0f25d174447",
		"blockhammer": "9786a0f25d174447",
		"zebram":      "f482e886f4b59ce7",
		"bankpart":    "433bb58044892c1b",
		"subarray":    "69b9ddc556bf95b6",
		"actremap":    "9786a0f25d174447",
		"actlock":     "9786a0f25d174447",
		"swrefresh":   "9786a0f25d174447",
		"anvil":       "9786a0f25d174447",
	},
}

// planDigest plans every catalog attack against the defense on seeds 1-3
// and digests the plans (or planning errors) in that order.
func planDigest(t *testing.T, name string) string {
	t.Helper()
	h := sha256.New()
	for seed := uint64(1); seed <= 3; seed++ {
		for _, kind := range attack.Catalog(12) {
			d, err := defense.New(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := E1Spec()
			spec.Seed = seed
			m, err := core.BuildWithDefense(spec, d)
			if err != nil {
				t.Fatal(err)
			}
			opts := AttackOpts{}
			opts.applyDefaults()
			tenants, err := SetupTenants(m, opts.Tenants, opts.PagesPerTenant)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := planAttack(m, tenants[0].Domain.ID, kind)
			raw, jerr := json.Marshal(struct {
				Kind           string
				AggressorLines []uint64
				AggressorVAs   []uint64
				Aggressors     any
				VictimRows     any
				CrossDomain    bool
				Err            string
			}{plan.Kind, plan.AggressorLines, plan.AggressorVAs, plan.Aggressors,
				plan.VictimRows, plan.CrossDomain, fmt.Sprint(err)})
			if jerr != nil {
				t.Fatal(jerr)
			}
			fmt.Fprintf(h, "%d/%s:%s\n", seed, kind.Name, raw)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func TestPlanGolden(t *testing.T) {
	want, ok := planGolden[sim.DeterminismEpoch]
	if !ok {
		t.Fatalf("no plan digests for DeterminismEpoch %d; add them to planGolden", sim.DeterminismEpoch)
	}
	for _, name := range E1Defenses {
		if got := planDigest(t, name); got != want[name] {
			t.Errorf("%s: plan digest %s, want %s", name, got, want[name])
		}
	}
}
