package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hammertime/internal/attack"
	"hammertime/internal/defense"
	"hammertime/internal/sim"
)

// statsGolden pins, per sim.DeterminismEpoch, the digest of the complete
// sim.Stats snapshot (every counter name and value, every vector, every
// histogram's buckets, count and sum) of a few short E1 and E4 cells.
// Performance work on the request path must leave every simulated
// statistic bit-identical, and no counter may appear or disappear; this
// pins that across changes, not just between runs of one build.
//
// A result-changing fix bumps sim.DeterminismEpoch and adds the new
// epoch's digests here, deliberately; the failure message prints them.
var statsGolden = map[int]map[string]string{
	2: {
		"e1/anvil/double-sided":    "613f5969f121f4f2",
		"e1/trr/many-sided(12)":    "37ee6841a789db7c",
		"e1/para/dma-double-sided": "e8584982b84d9bde",
		"e4/none":                  "04c5e06913a3b705",
		"e4/para":                  "28c2dd5bb6412561",
		"e4/anvil":                 "e01f3b07269ffbdd",
		"e4/actlock":               "145861bf04f2c709",
	},
}

// goldenCellStats runs one pinned cell and returns its merged stats.
func goldenCellStats(t *testing.T, name string) *sim.Stats {
	t.Helper()
	parts := strings.Split(name, "/")
	d, err := defense.New(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if parts[0] == "e4" {
		_, res, err := runBenign(ctx, d, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		return &res.Stats
	}
	for _, kind := range attack.Catalog(12) {
		if kind.Name == parts[2] {
			out, err := RunAttackCtx(ctx, E1Spec(), d, kind, AttackOpts{Horizon: 1_000_000})
			if err != nil {
				t.Fatal(err)
			}
			return &out.Result.Stats
		}
	}
	t.Fatalf("no attack %q in the catalog", parts[2])
	return nil
}

func statsDigest(t *testing.T, s *sim.Stats) string {
	t.Helper()
	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

func TestStatsGolden(t *testing.T) {
	want, ok := statsGolden[sim.DeterminismEpoch]
	if !ok {
		t.Fatalf("no stats digests for DeterminismEpoch %d; add them to statsGolden", sim.DeterminismEpoch)
	}
	var got, mismatched []string
	for name, digest := range want {
		st := goldenCellStats(t, name)
		d := statsDigest(t, st)
		got = append(got, fmt.Sprintf("%q: %q,", name, d))
		if d != digest {
			mismatched = append(mismatched, fmt.Sprintf("%s: digest %s, want %s\n%s", name, d, digest, st))
		}
	}
	if len(mismatched) > 0 {
		t.Fatalf("simulated statistics changed (epoch %d):\n%s\ndigests of this build:\n%s",
			sim.DeterminismEpoch, strings.Join(mismatched, "\n"), strings.Join(got, "\n"))
	}
}
