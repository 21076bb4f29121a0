package memctrl

import (
	"math"
	"testing"
)

// fakePlugin answers every hook with a fixed value and counts its calls.
type fakePlugin struct {
	busy, delay, next uint64
	acts, windows     int
}

func (f *fakePlugin) Admit(_ Request, _, _ int, wouldAct bool, _ uint64) uint64 {
	if !wouldAct {
		return 0
	}
	return f.delay
}

func (f *fakePlugin) OnACT(*Controller, int, int, uint64) (uint64, error) {
	f.acts++
	return f.busy, nil
}

func (f *fakePlugin) OnWindow() { f.windows++ }

func (f *fakePlugin) NextEvent(uint64, uint64) uint64 { return f.next }

// TestPluginChainContract pins what the controller does with each hook's
// answer: the chain's OnACT busy cycles are summed and charged to the
// bank once, the longest Admit delay is applied and counted as a
// throttle, every plugin's NextEvent bounds the controller's, and any
// number of missed refresh windows makes one OnWindow call.
func TestPluginChainContract(t *testing.T) {
	never := uint64(math.MaxUint64)

	t.Run("busy charged once", func(t *testing.T) {
		a := &fakePlugin{busy: 1000, next: never}
		b := &fakePlugin{busy: 300, next: never}
		c, mod := build(t, func(cfg *Config) { cfg.Plugins = []Plugin{a, b} })
		g := mod.Geometry()
		res, err := c.ServeRequest(Request{Line: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Activated || a.acts != 1 || b.acts != 1 {
			t.Fatalf("activated=%v, OnACT calls %d and %d, want one each", res.Activated, a.acts, b.acts)
		}
		if got := c.bankReady[0]; got != 1300 {
			t.Fatalf("bank busy until %d, want the chain's 1000+300 charged once on the idle bank", got)
		}
		hit, err := c.ServeRequest(Request{Line: uint64(g.Banks)}, res.Completion)
		if err != nil {
			t.Fatal(err)
		}
		if !hit.RowHit || hit.Start != 1300 {
			t.Fatalf("row hit %+v, want it to start when the mitigation frees the bank (1300)", hit)
		}
	})

	t.Run("admit delay throttles", func(t *testing.T) {
		a := &fakePlugin{delay: 20, next: never}
		b := &fakePlugin{delay: 77, next: never}
		c, mod := build(t, func(cfg *Config) { cfg.Plugins = []Plugin{a, b} })
		res, err := c.ServeRequest(Request{Line: 0}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.ThrottleDelay != 77 || res.Start < 77 {
			t.Fatalf("result %+v, want the longest delay (77) applied", res)
		}
		// A row hit does not activate: the fakes ask for no delay.
		if _, err := c.ServeRequest(Request{Line: uint64(mod.Geometry().Banks)}, res.Completion); err != nil {
			t.Fatal(err)
		}
		st := c.Stats()
		if n, cyc := st.Counter("mc.throttled"), st.Counter("mc.throttle_cycles"); n != 1 || cyc != 77 {
			t.Fatalf("mc.throttled=%d mc.throttle_cycles=%d, want 1 and 77", n, cyc)
		}
	})

	t.Run("next event bounds controller", func(t *testing.T) {
		p := &fakePlugin{next: 123}
		c, mod := build(t, func(cfg *Config) { cfg.Plugins = []Plugin{&fakePlugin{next: never}, p} })
		if got := c.NextEvent(); got != 123 {
			t.Fatalf("NextEvent = %d, want the plugin's 123", got)
		}
		p.next = never
		if got, want := c.NextEvent(), mod.Timing().TREFI; got != want {
			t.Fatalf("NextEvent = %d with nothing pending in the chain, want the refresh deadline %d", got, want)
		}
	})

	t.Run("missed windows call once", func(t *testing.T) {
		p := &fakePlugin{next: never}
		c, mod := build(t, func(cfg *Config) { cfg.Plugins = []Plugin{p} })
		w := mod.Timing().RefreshWindow
		c.AdvanceTo(w - 1)
		if p.windows != 0 {
			t.Fatalf("OnWindow ran %d times before the first boundary", p.windows)
		}
		c.AdvanceTo(3*w + w/2)
		if p.windows != 1 {
			t.Fatalf("three missed boundaries made %d OnWindow calls, want 1", p.windows)
		}
		c.AdvanceTo(4 * w)
		if p.windows != 2 {
			t.Fatalf("the next boundary made %d OnWindow calls in total, want 2", p.windows)
		}
	})
}
