package ecc

import (
	"testing"
	"testing/quick"

	"hammertime/internal/sim"
)

func TestDataPositionsDistinct(t *testing.T) {
	seen := make(map[uint8]bool)
	for i, p := range dataPos {
		if p == 0 || p&(p-1) == 0 {
			t.Fatalf("data bit %d mapped to check position %d", i, p)
		}
		if seen[p] {
			t.Fatalf("position %d used twice", p)
		}
		seen[p] = true
		if p > 72 {
			t.Fatalf("position %d exceeds the (72,64) layout", p)
		}
	}
}

// syndromeBitSerial is the bit-serial syndrome the byte tables replaced,
// kept as their oracle.
func syndromeBitSerial(data uint64) uint8 {
	var syn uint8
	for i := 0; i < DataBits; i++ {
		if data&(1<<uint(i)) != 0 {
			syn ^= dataPos[i]
		}
	}
	return syn
}

// TestSyndromeMatchesBitSerial checks the byte-table syndrome against the
// bit-serial oracle on zero, every single-bit word and 10^5 seeded
// random words.
func TestSyndromeMatchesBitSerial(t *testing.T) {
	check := func(data uint64) {
		t.Helper()
		if got, want := syndromeOf(data), syndromeBitSerial(data); got != want {
			t.Fatalf("syndromeOf(%#x) = %#x, bit-serial %#x", data, got, want)
		}
	}
	check(0)
	check(^uint64(0))
	for i := 0; i < DataBits; i++ {
		check(1 << uint(i))
	}
	rng := sim.NewRNG(0xecc)
	for i := 0; i < 100_000; i++ {
		check(rng.Uint64())
	}
}

// TestCleanRoundTrip is a property test: encode/decode of any word is the
// identity with result OK.
func TestCleanRoundTrip(t *testing.T) {
	f := func(data uint64) bool {
		got, res := Decode(Encode(data))
		return got == data && res == OK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// flipBits flips the given encoded-bit indices (0..63 data, 64..71 check).
func flipBits(w Word, idx ...int) Word {
	for _, i := range idx {
		if i < DataBits {
			w.Data ^= 1 << uint(i)
		} else {
			w.Check ^= 1 << uint(i-DataBits)
		}
	}
	return w
}

// TestSingleBitAlwaysCorrected is the SEC property over every single
// position, data and check bits alike.
func TestSingleBitAlwaysCorrected(t *testing.T) {
	f := func(data uint64, posRaw uint8) bool {
		pos := int(posRaw) % CodeBits
		w := flipBits(Encode(data), pos)
		got, res := Decode(w)
		return res == Corrected && got == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleBitAlwaysDetected is the DED property over random pairs.
func TestDoubleBitAlwaysDetected(t *testing.T) {
	f := func(data uint64, aRaw, bRaw uint8) bool {
		a := int(aRaw) % CodeBits
		b := int(bRaw) % CodeBits
		if a == b {
			return true
		}
		_, res := Decode(flipBits(Encode(data), a, b))
		return res == Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTripleBitCanSlip verifies the Cojocar et al. observation the model
// depends on: some triple-bit patterns decode as OK/Corrected with wrong
// data (silent corruption), rather than always being detected.
func TestTripleBitCanSlip(t *testing.T) {
	rng := sim.NewRNG(7)
	silent := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		data := rng.Uint64()
		a := rng.Intn(CodeBits)
		b := rng.Intn(CodeBits)
		c := rng.Intn(CodeBits)
		if a == b || b == c || a == c {
			continue
		}
		if Classify(data, flipBits(Encode(data), a, b, c)) == SilentCorruption {
			silent++
		}
	}
	if silent == 0 {
		t.Fatal("no triple-flip pattern ever slipped past SECDED — bypass modeling impossible")
	}
	t.Logf("silent corruption in %d/%d random triple-flip trials", silent, trials)
}

func TestClassify(t *testing.T) {
	w := Encode(0xdeadbeef)
	if got := Classify(0xdeadbeef, w); got != Clean {
		t.Fatalf("clean word classified %v", got)
	}
	if got := Classify(0xdeadbeef, flipBits(w, 5)); got != CorrectedOK {
		t.Fatalf("single flip classified %v", got)
	}
	if got := Classify(0xdeadbeef, flipBits(w, 5, 9)); got != DetectedError {
		t.Fatalf("double flip classified %v", got)
	}
}

func TestResultStrings(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Detected.String() != "detected" {
		t.Fatal("result names wrong")
	}
	if SilentCorruption.String() != "silent-corruption" || Clean.String() != "clean" {
		t.Fatal("classification names wrong")
	}
}
