package fault

import (
	"strings"
	"testing"
	"time"

	"hammertime/internal/sim"
)

// TestParse is the grammar's table: every site's good clauses round-trip
// through String and Parse, and every malformed clause is rejected.
func TestParse(t *testing.T) {
	good := []struct {
		spec  string
		check func(t *testing.T, s Spec)
	}{
		{"serve.latency=20ms:0.5,serve.panic:0.1,serve.cancel:0.2", func(t *testing.T, s Spec) {
			site := s.Arm("serve", 1)
			lat, _ := site.Fault("latency")
			p, _ := site.Fault("panic")
			c, _ := site.Fault("cancel")
			if lat.Dur != 20*time.Millisecond || lat.P != 0.5 || p.P != 0.1 || c.P != 0.2 {
				t.Fatalf("bad parse: %+v", s)
			}
		}},
		{"rpc.drop:0.1,rpc.delay=20ms:0.3,rpc.dup:0.05,rpc.truncate:0.05,rpc.corrupt:0.05,rpc.spike=80ms@10-30,rpc.partition=w2@40-60", func(t *testing.T, s Spec) {
			if len(s) != 7 {
				t.Fatalf("parsed %d clauses, want 7: %+v", len(s), s)
			}
			if sp := s[5]; sp.Dur != 80*time.Millisecond || sp.From != 10 || sp.To != 30 || sp.P != 0 {
				t.Fatalf("bad spike: %+v", sp)
			}
		}},
		// A host with a port: the window comes off before any ':'.
		{"rpc.partition=w2:9090@40-60", func(t *testing.T, s Spec) {
			if f := s[0]; f.Arg != "w2:9090" || f.From != 40 || f.To != 60 {
				t.Fatalf("bad partition: %+v", f)
			}
		}},
		{"worker.corrupt:1", func(t *testing.T, s Spec) {
			if s[0].P != 1 {
				t.Fatalf("bad corrupt: %+v", s[0])
			}
		}},
		{"cell.error=e7/3,cell.panic=sim/0,cell.once=e1/5", func(t *testing.T, s Spec) {
			if f, ok := s.Cell("e7", 3); !ok || f.Kind != "error" {
				t.Fatalf("cell e7/3: %+v %v", f, ok)
			}
			if f, ok := s.Cell("sim", 0); !ok || f.Kind != "panic" {
				t.Fatalf("cell sim/0: %+v %v", f, ok)
			}
			if _, ok := s.Cell("e7", 2); ok {
				t.Fatal("cell e7/2 matched a fault aimed at e7/3")
			}
			if _, ok := s.Cell("e1", 3); ok {
				t.Fatal("cell e1/3 matched a fault aimed at e7/3")
			}
		}},
	}
	for _, c := range good {
		t.Run(c.spec, func(t *testing.T) {
			s, err := Parse(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(s) == 0 {
				t.Fatal("parsed spec is empty")
			}
			if got := s.String(); got != c.spec {
				t.Fatalf("round trip: %q -> %q", c.spec, got)
			}
			again, err := Parse(s.String())
			if err != nil || again.String() != c.spec {
				t.Fatalf("String does not re-parse: %q: %v", s.String(), err)
			}
			c.check(t, s)
		})
	}

	for _, bad := range []string{
		// serve
		"serve.latency=20ms", // missing probability
		"serve.panic:2",      // probability out of range
		"serve.warp:0.1",     // unknown fault
		"serve.latency=x:0.5",
		// rpc
		"rpc.drop:2",           // probability out of range
		"rpc.drop",             // missing probability
		"rpc.warp:0.5",         // unknown fault
		"rpc.delay=xx:0.5",     // bad duration
		"rpc.spike=80ms",       // missing window
		"rpc.spike=80ms@9-3",   // inverted window
		"rpc.spike=0s@1-2",     // spike of no duration
		"rpc.partition=@10-20", // empty host
		"rpc.partition=w2@a-b", // non-numeric window
		// cell
		"cell.error=e7/x", // non-numeric index
		"cell.error=e7",   // missing index
		"cell.pnic=e7/1",  // unknown mode
		// the grammar itself
		"drop:0.1",                  // no site
		"disk.drop:0.1",             // unknown site
		"serve.panic=now:0.1",       // argument on a fault that takes none
		"rpc.drop:0.1,rpc.drop:0.2", // a probable fault stated twice
		"rpc.spike=1ms:0.5",         // windowed fault given a probability
		"worker.corrupt:0.1@1-2",    // probable fault given a window
		"cell.error=e7/1:0.5",       // cell fault given a probability
	} {
		if s, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted: %v", bad, s)
		}
	}
}

// TestEmptySpecIsOff: an empty spec renders off, parses back empty, arms
// no site, and a nil site never fires.
func TestEmptySpecIsOff(t *testing.T) {
	for _, spec := range []string{"", "off", " , "} {
		s, err := Parse(spec)
		if err != nil || len(s) != 0 {
			t.Fatalf("Parse(%q) = %v, %v; want empty", spec, s, err)
		}
		if s.String() != "off" {
			t.Fatalf("empty spec renders %q, want off", s.String())
		}
		if site := s.Arm("serve", 1); site != nil {
			t.Fatalf("empty spec armed %+v", site)
		}
		if _, ok := s.Cell("e7", 0); ok {
			t.Fatal("empty spec aims at a cell")
		}
	}
	var site *Site
	if _, fired := site.Roll("panic"); fired {
		t.Fatal("nil site fired")
	}
	var st sim.Stats
	site.MergeInto(&st)
	if n := len(st.Snapshot().Counters); n != 0 {
		t.Fatalf("nil site merged %d counters", n)
	}
}

func TestCheckArmedSites(t *testing.T) {
	s := MustParse("serve.panic:0.1,rpc.drop:0.1")
	if err := s.Check("serve", "rpc"); err != nil {
		t.Fatal(err)
	}
	err := s.Check("serve", "cell")
	if err == nil || !strings.Contains(err.Error(), `"rpc"`) {
		t.Fatalf("spec naming an unarmed site passed: %v", err)
	}
}

// TestRollDrawsAndCounts: a site draws one Bool(p) from sim.NewRNG(seed)
// per roll of a probable fault it injects, nothing for a kind it does
// not inject, and counts every injection as fault.<site>.<kind>.
func TestRollDrawsAndCounts(t *testing.T) {
	site := MustParse("serve.panic:0.5,serve.cancel:0").Arm("serve", 7)
	ref := sim.NewRNG(7)
	fired := 0
	for i := 0; i < 100; i++ {
		if _, ok := site.Roll("latency"); ok {
			t.Fatal("a fault the site does not inject fired")
		}
		if _, ok := site.Roll("cancel"); ok {
			t.Fatal("p=0 fired")
		}
		_, ok := site.Roll("panic")
		if ok != ref.Bool(0.5) {
			t.Fatalf("roll %d diverged from sim.NewRNG(seed).Bool", i)
		}
		if ok {
			fired++
		}
	}
	var st sim.Stats
	site.MergeInto(&st)
	if got := st.Counter("fault.serve.panic"); got != int64(fired) || fired == 0 {
		t.Fatalf("fault.serve.panic = %d, want %d (> 0)", got, fired)
	}
}

// TestDrawReservesStream: Draw(n) numbers the calls and hands each one
// the next n values of sim.NewRNG(seed), whatever order they are used in.
func TestDrawReservesStream(t *testing.T) {
	site := MustParse("rpc.drop:0.5").Arm("rpc", 3)
	ref := sim.NewRNG(3)
	for call := uint64(0); call < 4; call++ {
		seq, rng := site.Draw(3)
		if seq != call {
			t.Fatalf("call %d numbered %d", call, seq)
		}
		for i := 0; i < 3; i++ {
			if got, want := rng.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("call %d value %d: %x, want %x", call, i, got, want)
			}
		}
	}
}
