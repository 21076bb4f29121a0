package diff

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"hammertime/internal/harness"
	"hammertime/internal/sim"
)

// TestDenseVsReference exercises the dense-vs-naive oracle over several
// seeds and controller configurations; any divergence between the dense
// hot-path state and the sparse reference model fails.
func TestDenseVsReference(t *testing.T) {
	cases := []StreamConfig{
		{Seed: 1, Defense: "none"},
		{Seed: 2, Defense: "para"},
		{Seed: 3, Defense: "graphene"},
		{Seed: 4, Defense: "blockhammer"},
		{Seed: 5, Defense: "none"},
		{Seed: 6, Defense: "para"},
		{Seed: 16, Defense: "stacked"},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(cfg.Defense+"/"+string('0'+rune(cfg.Seed)), func(t *testing.T) {
			t.Parallel()
			if _, _, err := DenseVsReference(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSerialVsParallel pins the harness guarantee that worker-pool and
// serial grid execution render byte-identical tables.
func TestSerialVsParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full attack simulations")
	}
	opts := harness.AttackOpts{Horizon: 400_000, Tenants: 2, PagesPerTenant: 60}
	if err := SerialVsParallel([]string{"none", "para", "trr"}, 4, opts); err != nil {
		t.Fatal(err)
	}
}

// stackedDigest pins the complete controller and module statistics and
// the flip records of the stacked stream: PARA, Graphene and BlockHammer
// on one controller under the precise ACT counter, whose handler issues
// nested refresh instructions. The counter runs before the plugin chain,
// so each nested instruction's ACT draws PARA's RNG, feeds the trackers
// and charges its bank time ahead of the triggering ACT's own chain.
// Moving the counter after the chain, or charging bank time any other
// way, moves this digest even where the dense/reference diff agrees.
const stackedDigest = "df60d5d0a897eccd"

func TestStackedOrderDigest(t *testing.T) {
	mc, mod, err := DenseVsReference(StreamConfig{Seed: 16, Defense: "stacked"})
	if err != nil {
		t.Fatal(err)
	}
	st := mc.Stats()
	for _, name := range []string{"mc.para_refreshes", "mc.graphene_refreshes", "mc.throttled"} {
		if st.Counter(name) == 0 {
			t.Fatalf("%s is 0: the stream no longer exercises every mitigation\n%s", name, st)
		}
	}
	if mc.ACTOverflows() == 0 || mod.FlipCount() == 0 {
		t.Fatalf("stream drew %d ACT interrupts and %d flips; both must be nonzero", mc.ACTOverflows(), mod.FlipCount())
	}
	h := sha256.New()
	for _, s := range []*sim.Stats{st, mod.Stats()} {
		raw, err := json.Marshal(s.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(raw)
	}
	for _, f := range mod.Flips() {
		fmt.Fprintf(h, "%+v\n", f)
	}
	if got := hex.EncodeToString(h.Sum(nil)[:8]); got != stackedDigest {
		t.Fatalf("stacked stream digest %s, want %s\n%s", got, stackedDigest, st)
	}
}
