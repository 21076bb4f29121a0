package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"hammertime/internal/cpu"
	"hammertime/internal/sim"
)

// pinLines is a paged working set of 2560 lines over scattered frames.
func pinLines() Lines {
	frames := make([]uint64, 40)
	for i := range frames {
		frames[i] = uint64(i*i*7 + 3)
	}
	return Lines{Frames: frames, Shift: 6}
}

// accessDigest hashes an access sequence field by field.
func accessDigest(accs []cpu.Access) string {
	h := sha256.New()
	var b [18]byte
	for _, a := range accs {
		binary.LittleEndian.PutUint64(b[0:], a.Line)
		binary.LittleEndian.PutUint64(b[8:], a.Think)
		b[16], b[17] = 0, 0
		if a.Write {
			b[16] = 1
		}
		if a.Flush {
			b[17] = 1
		}
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFillSequencesPinned checks that every generator yields the same
// accesses whatever the size of the buffer it fills, and that those are
// the accesses the generators yielded one at a time before they filled
// in batches: the digests were taken from the one-access generators.
func TestFillSequencesPinned(t *testing.T) {
	lines := pinLines()
	gens := []struct {
		name   string
		mk     func() (cpu.Program, error)
		digest string
	}{
		{"stream", func() (cpu.Program, error) { return Stream(lines, 10000, 3) }, "a67a59347d5d960d"},
		{"random", func() (cpu.Program, error) { return Random(lines, 10000, 0, 0.3, sim.NewRNG(5)) }, "36ab3782a3c2326d"},
		{"chase", func() (cpu.Program, error) { return PointerChase(lines, 10000, 1, sim.NewRNG(6)) }, "1e8a782dbd922ca3"},
		{"zipf", func() (cpu.Program, error) { return Zipfian(lines, 10000, 0, 0.99, sim.NewRNG(7)) }, "1c2b1a84776fef15"},
		// The benign E4 tenant's program, cut to 10 000 accesses.
		{"mix", func() (cpu.Program, error) {
			s, err := Stream(lines, 1<<30, 0)
			if err != nil {
				return nil, err
			}
			r, err := Random(lines, 1<<30, 0, 0.3, sim.NewRNG(8))
			if err != nil {
				return nil, err
			}
			return Limit(Mix(s, r), 10000), nil
		}, "b426d6f73a356183"},
	}
	for _, g := range gens {
		for _, batch := range []int{1, 3, cpu.BatchLen} {
			p, err := g.mk()
			if err != nil {
				t.Fatal(err)
			}
			accs := drainBy(t, p, 10000, batch)
			if len(accs) != 10000 {
				t.Fatalf("%s, batch %d: %d accesses, want 10000", g.name, batch, len(accs))
			}
			if got := accessDigest(accs); got != g.digest {
				t.Errorf("%s, batch %d: digest %s, want %s", g.name, batch, got, g.digest)
			}
		}
	}
}

// roundRobin is the reference Mix: it asks the children for one access
// at a time, in turn, and drops a child at the turn it reports its end.
func roundRobin(progs []cpu.Program) []cpu.Access {
	var out []cpu.Access
	var one [1]cpu.Access
	for i := 0; len(progs) > 0; {
		i %= len(progs)
		if progs[i].Fill(one[:]) == 0 {
			progs = append(progs[:i], progs[i+1:]...)
			continue
		}
		out = append(out, one[0])
		i++
	}
	return out
}

// TestMixMatchesRoundRobin checks Mix against the one-at-a-time
// reference over children of unequal lengths, so children end at every
// offset of a batch, read through buffers of several sizes, including
// ones smaller than the number of children and a size that changes on
// every call.
func TestMixMatchesRoundRobin(t *testing.T) {
	lines := pinLines()
	children := func() []cpu.Program {
		var ps []cpu.Program
		for i, n := range []int{0, 5, 17, 1, 40, 9} {
			var p cpu.Program
			var err error
			if i%2 == 0 {
				p, err = Stream(lines, n, uint64(i))
			} else {
				p, err = Random(lines, n, 0, 0.5, sim.NewRNG(uint64(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		// A child that fills one access a time and never fills ahead.
		k := 0
		ps = append(ps, cpu.ProgramFunc(func() (cpu.Access, bool) {
			if k == 12 {
				return cpu.Access{}, false
			}
			k++
			return cpu.Access{Line: uint64(1000 + k), Flush: true}, true
		}))
		return ps
	}
	want := roundRobin(children())
	if len(want) != 84 {
		t.Fatalf("reference yielded %d accesses, want 84", len(want))
	}
	for _, sizes := range [][]int{{1}, {2}, {3}, {7}, {cpu.BatchLen}, {64}, {5, 1, 16, 2, 9, 3}} {
		m := Mix(children()...)
		var got []cpu.Access
		for i := 0; ; i++ {
			buf := make([]cpu.Access, sizes[i%len(sizes)])
			n := m.Fill(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("buffer sizes %v: mix differs from round-robin\n got %v\nwant %v", sizes, got, want)
		}
	}
}
