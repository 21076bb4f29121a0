// Package ecc implements the SECDED (single-error-correct, double-error-
// detect) Hamming code used by server DRAM: a (72,64) code protecting
// each 64-bit word with 8 check bits.
//
// ECC is part of the Rowhammer threat landscape the paper builds on:
// Cojocar et al. (S&P'19, [12] in the paper) showed that ECC DRAM merely
// raises the bar — single flips per word are corrected, double flips are
// detected (crashing the machine, a DoS), and triple flips can slip
// through or miscorrect into silent corruption. This package provides the
// exact code so the simulator can classify every Rowhammer flip pattern
// into corrected / detected / silently-corrupting, reproducing that
// hierarchy (experiment E9).
package ecc

import "math/bits"

// CheckBits is the number of check bits per 64-bit word (7 Hamming bits
// plus 1 overall parity bit).
const CheckBits = 8

// DataBits is the number of protected data bits per word.
const DataBits = 64

// CodeBits is the total encoded width.
const CodeBits = DataBits + CheckBits

// Word is one ECC-protected 64-bit word: the data bits plus the stored
// check byte (Hamming bits in bits 0..6, overall parity in bit 7).
type Word struct {
	Data  uint64
	Check uint8
}

// Result classifies a decode.
type Result int

const (
	// OK means no error was present.
	OK Result = iota
	// Corrected means a single-bit error was corrected.
	Corrected
	// Detected means an uncorrectable (double-bit) error was detected;
	// on real hardware this raises a machine-check exception.
	Detected
	// Note: >=3-bit errors can alias to OK or Corrected — *silent*
	// corruption or miscorrection. The decoder cannot tell; callers
	// compare against ground truth to count those (see Classify).
)

// String returns the result name.
func (r Result) String() string {
	switch r {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return "unknown"
	}
}

// hammingPosition maps data-bit index (0..63) to its position in the
// classical Hamming layout (1-based positions with powers of two reserved
// for check bits). Positions 1,2,4,8,16,32,64 hold check bits; data fills
// the rest of 1..72.
var dataPos [DataBits]uint8

// byteSyn[k][b] is the syndrome of data byte k holding b: the XOR of the
// positions of b's set bits. The syndrome is linear over GF(2), so a
// word's syndrome is the XOR of its eight bytes' entries.
var byteSyn [8][256]uint8

func init() {
	p := uint8(1)
	for i := 0; i < DataBits; i++ {
		for p&(p-1) == 0 { // skip power-of-two positions (check bits)
			p++
		}
		dataPos[i] = p
		p++
	}
	for k := range byteSyn {
		for b := 1; b < 256; b++ {
			low := bits.TrailingZeros8(uint8(b))
			byteSyn[k][b] = byteSyn[k][b&(b-1)] ^ dataPos[8*k+low]
		}
	}
}

// syndromeOf computes the 7-bit Hamming syndrome of the data bits alone.
func syndromeOf(data uint64) uint8 {
	return byteSyn[0][uint8(data)] ^ byteSyn[1][uint8(data>>8)] ^
		byteSyn[2][uint8(data>>16)] ^ byteSyn[3][uint8(data>>24)] ^
		byteSyn[4][uint8(data>>32)] ^ byteSyn[5][uint8(data>>40)] ^
		byteSyn[6][uint8(data>>48)] ^ byteSyn[7][uint8(data>>56)]
}

// Encode protects a 64-bit word.
func Encode(data uint64) Word {
	syn := syndromeOf(data)
	// Overall parity covers data bits and the 7 Hamming bits.
	parity := uint8(bits.OnesCount64(data)+bits.OnesCount8(syn)) & 1
	return Word{Data: data, Check: syn | parity<<7}
}

// Decode checks and (when possible) corrects w, returning the corrected
// data and the classification. Triple-bit (and worse) errors may return
// OK or Corrected with wrong data — exactly like hardware.
func Decode(w Word) (uint64, Result) {
	storedSyn := w.Check & 0x7f
	storedParity := w.Check >> 7
	syn := syndromeOf(w.Data) ^ storedSyn
	parity := uint8(bits.OnesCount64(w.Data)+bits.OnesCount8(storedSyn))&1 ^ storedParity

	if syn == 0 && parity == 0 {
		return w.Data, OK
	}
	if parity == 1 {
		// Single-bit error: either a data bit (syndrome names its
		// position) or a check bit (syndrome zero, or syndrome is a
		// power of two naming the check bit itself).
		if syn == 0 || syn&(syn-1) == 0 {
			// The flipped bit was a check/parity bit; data is intact.
			return w.Data, Corrected
		}
		for i := 0; i < DataBits; i++ {
			if dataPos[i] == syn {
				return w.Data ^ 1<<uint(i), Corrected
			}
		}
		// Syndrome names a position outside the layout: alias of a
		// multi-bit error. Report detected rather than corrupting.
		return w.Data, Detected
	}
	// parity == 0 but syndrome != 0: double-bit error.
	return w.Data, Detected
}

// Classification compares a decode against ground truth, distinguishing
// the silent failure modes a decoder alone cannot see.
type Classification int

const (
	// Clean: no flips were present.
	Clean Classification = iota
	// CorrectedOK: flips present, decode repaired them exactly.
	CorrectedOK
	// DetectedError: decode flagged an uncorrectable error (machine
	// check / DoS on real hardware).
	DetectedError
	// SilentCorruption: decode returned OK or Corrected but the data is
	// wrong — the Cojocar et al. ECC bypass.
	SilentCorruption
)

// String returns the classification name.
func (c Classification) String() string {
	switch c {
	case Clean:
		return "clean"
	case CorrectedOK:
		return "corrected"
	case DetectedError:
		return "detected"
	case SilentCorruption:
		return "silent-corruption"
	default:
		return "unknown"
	}
}

// Classify decodes a possibly-flipped word and compares against the
// original data to classify the outcome.
func Classify(original uint64, stored Word) Classification {
	decoded, res := Decode(stored)
	clean := stored.Data == original && res == OK
	switch {
	case clean:
		return Clean
	case res == Detected:
		return DetectedError
	case decoded == original:
		return CorrectedOK
	default:
		return SilentCorruption
	}
}
