// Package chipseq implements the IEEE 802.15.4 2.4 GHz direct-sequence
// spread spectrum code book used by the CC2420 radios in the PPR testbed.
//
// Each 4-bit data symbol maps to one of 16 quasi-orthogonal 32-chip
// pseudo-noise sequences (b = 4, B = 32 in the paper's notation, Sec. 2).
// Per IEEE 802.15.4-2006 Table 24, sequences 1–7 are successive 4-chip right
// rotations of the base sequence, and sequences 8–15 are the conjugates of
// 0–7 (every odd-indexed chip inverted). The geometry of this code book —
// in particular the pairwise Hamming distances between codewords — is what
// makes Hamming distance a usable SoftPHY hint (Sec. 3.2), so we reproduce
// the standard's exact sequences rather than an arbitrary orthogonal set.
package chipseq

import (
	"fmt"
	"math/bits"
)

const (
	// NumSymbols is the number of codewords (2^BitsPerSymbol).
	NumSymbols = 16
	// ChipsPerSymbol is the spreading factor B: chips per codeword.
	ChipsPerSymbol = 32
	// BitsPerSymbol is b: data bits carried by each codeword.
	BitsPerSymbol = 4
)

// baseChips is the symbol-0 chip sequence from IEEE 802.15.4-2006 Table 24,
// chip c0 first.
const baseChips = "11011001110000110101001000101110"

// codebook[s] holds the 32-chip sequence for symbol s with chip i stored at
// bit position (31-i), so the binary representation reads in chip order.
var codebook [NumSymbols]uint32

// signedChips[s][i] is +1.0 for chip 1 and -1.0 for chip 0, precomputed for
// the soft-decision correlation metric.
var signedChips [NumSymbols][ChipsPerSymbol]float64

func init() {
	var base uint32
	for i := 0; i < ChipsPerSymbol; i++ {
		if baseChips[i] == '1' {
			base |= 1 << uint(31-i)
		}
	}
	for s := 0; s < 8; s++ {
		codebook[s] = rotateRightChips(base, 4*s)
	}
	// The conjugate inverts every odd-indexed chip (the Q-phase chips of the
	// O-QPSK half-sine modulation): mask has 1s at chip positions 1,3,5,...
	const oddMask = 0x55555555 // bit(31-i) set for odd i
	for s := 0; s < 8; s++ {
		codebook[8+s] = codebook[s] ^ oddMask
	}
	for s := 0; s < NumSymbols; s++ {
		for i := 0; i < ChipsPerSymbol; i++ {
			if ChipAt(codebook[s], i) == 1 {
				signedChips[s][i] = 1
			} else {
				signedChips[s][i] = -1
			}
		}
	}
}

// rotateRightChips rotates the 32-chip sequence right by n chip positions in
// chip order (chip i moves to chip (i+n) mod 32).
func rotateRightChips(cw uint32, n int) uint32 {
	// Chip i is at bit (31-i); moving chips right in chip order is a right
	// rotate in bit order as well.
	return bits.RotateLeft32(cw, -n)
}

// Codeword returns the 32-chip sequence for the 4-bit symbol s.
func Codeword(s byte) uint32 {
	if s >= NumSymbols {
		panic(fmt.Sprintf("chipseq: symbol %d out of range", s))
	}
	return codebook[s]
}

// ChipAt extracts chip i (0 ≤ i < 32) from a codeword, returning 0 or 1.
func ChipAt(cw uint32, i int) int {
	return int(cw>>uint(31-i)) & 1
}

// Signed returns the ±1 representation of symbol s's chips, used as the
// reference waveform in soft-decision decoding.
func Signed(s byte) *[ChipsPerSymbol]float64 {
	if s >= NumSymbols {
		panic(fmt.Sprintf("chipseq: symbol %d out of range", s))
	}
	return &signedChips[s]
}

// NearestHard maps a hard-decided 32-chip word to the closest codeword and
// returns the decoded symbol together with the Hamming distance to it —
// exactly the SoftPHY hint of Sec. 3.2. Ties resolve to the lowest symbol,
// which is deterministic and unbiased with respect to correctness labelling.
//
// This is the despreader's innermost loop — one call per received symbol —
// so most words are answered by a screen: the half tables name the one
// codeword a 16-chip half could belong to, and a candidate within
// screenRadius chips is returned as is. That is exact. The code book's
// minimum distance is 2·screenRadius+2 = 12, so every other codeword is at
// least 7 chips away and the candidate is the unique nearest (no tie). And
// a word within screenRadius chips of a codeword holds at most halfRadius
// of those chip errors in one of its halves, whose table entry therefore
// names that codeword. Words the screen cannot place run nearestAll.
func NearestHard(received uint32) (sym byte, dist int) {
	s := nearHigh[received>>16]
	if d := bits.OnesCount32(received ^ codebook[s&(NumSymbols-1)]); d <= screenRadius {
		return s, d
	}
	s = nearLow[received&0xFFFF]
	if d := bits.OnesCount32(received ^ codebook[s&(NumSymbols-1)]); d <= screenRadius {
		return s, d
	}
	return nearestAll(received)
}

// screenRadius is the largest distance NearestHard's screen answers:
// (MinPairDistance()−1)/2. halfRadius is how far from a codeword's half a
// 16-chip half may be for the half tables to name it; halves of distinct
// codewords differ in at least 2·halfRadius+1 = 5 chips, so the name is
// unique. TestNearestHardScreen derives both distances from the code book.
const (
	screenRadius = 5
	halfRadius   = 2
)

// nearHigh[h] (nearLow[h]) is the symbol whose codeword's high (low) 16
// chips lie within halfRadius of h, or 0 when none does. An entry only
// proposes a candidate that NearestHard then vets by its full distance, so
// the tables decide speed, never the answer, and need no sentinel.
var nearHigh, nearLow [1 << 16]byte

func init() {
	for s := 0; s < NumSymbols; s++ {
		claimNear(&nearHigh, uint16(codebook[s]>>16), byte(s))
		claimNear(&nearLow, uint16(codebook[s]), byte(s))
	}
}

// claimNear points every table entry within halfRadius chips of half h at
// symbol s.
func claimNear(tbl *[1 << 16]byte, h uint16, s byte) {
	tbl[h] = s
	for i := 0; i < 16; i++ {
		tbl[h^1<<i] = s
		for j := i + 1; j < 16; j++ {
			tbl[h^1<<i^1<<j] = s
		}
	}
}

// nearestAll is NearestHard without the screen: the full search over the
// 16 codewords, fully unrolled and branch-free. Each candidate packs
// (distance, symbol) into one word and a compare-move tournament keeps the
// minimum, which the compiler lowers to CMOVs rather than data-dependent
// branches. Packing the symbol in the low bits makes the tie-break to the
// lowest symbol fall out of the numeric minimum.
func nearestAll(received uint32) (sym byte, dist int) {
	m := minU32(packDS(received, 0), packDS(received, 1))
	m = minU32(m, packDS(received, 2))
	m = minU32(m, packDS(received, 3))
	m = minU32(m, packDS(received, 4))
	m = minU32(m, packDS(received, 5))
	m = minU32(m, packDS(received, 6))
	m = minU32(m, packDS(received, 7))
	m = minU32(m, packDS(received, 8))
	m = minU32(m, packDS(received, 9))
	m = minU32(m, packDS(received, 10))
	m = minU32(m, packDS(received, 11))
	m = minU32(m, packDS(received, 12))
	m = minU32(m, packDS(received, 13))
	m = minU32(m, packDS(received, 14))
	m = minU32(m, packDS(received, 15))
	return byte(m & (NumSymbols - 1)), int(m >> 4)
}

// packDS packs symbol s's Hamming distance above the symbol value, so the
// minimum over all 16 packed words is the minimum distance with ties going
// to the lowest symbol.
func packDS(received uint32, s int) uint32 {
	return uint32(bits.OnesCount32(received^codebook[s]))<<4 | uint32(s)
}

func minU32(a, b uint32) uint32 {
	if b < a {
		return b
	}
	return a
}

// Correlate computes the soft-decision correlation metric of Eq. 1 between
// received chip samples r (length 32) and symbol s's codeword:
// C(R, Cs) = Σ_j (2c_sj − 1) r_j.
func Correlate(r []float64, s byte) float64 {
	if len(r) != ChipsPerSymbol {
		panic(fmt.Sprintf("chipseq: Correlate needs %d samples, got %d", ChipsPerSymbol, len(r)))
	}
	ref := Signed(s)
	var c float64
	for j := 0; j < ChipsPerSymbol; j++ {
		c += ref[j] * r[j]
	}
	return c
}

// NearestSoft picks the codeword with the highest correlation metric against
// the received chip samples and also returns the runner-up correlation,
// letting callers derive margin-based confidence hints.
func NearestSoft(r []float64) (sym byte, best, runnerUp float64) {
	if len(r) != ChipsPerSymbol {
		panic(fmt.Sprintf("chipseq: NearestSoft needs %d samples, got %d", ChipsPerSymbol, len(r)))
	}
	best = -1e18
	runnerUp = -1e18
	for s := 0; s < NumSymbols; s++ {
		c := Correlate(r, byte(s))
		if c > best {
			runnerUp = best
			best = c
			sym = byte(s)
		} else if c > runnerUp {
			runnerUp = c
		}
	}
	return sym, best, runnerUp
}

// PairDistance returns the Hamming distance between the codewords of symbols
// a and b.
func PairDistance(a, b byte) int {
	return bits.OnesCount32(Codeword(a) ^ Codeword(b))
}

// MinPairDistance returns the minimum Hamming distance between any two
// distinct codewords in the book. Decoding errors at low SINR collapse onto
// codewords at this distance, which is why incorrect codewords show large
// Hamming-distance hints (Fig. 3).
func MinPairDistance() int {
	min := ChipsPerSymbol + 1
	for a := 0; a < NumSymbols; a++ {
		for b := a + 1; b < NumSymbols; b++ {
			if d := PairDistance(byte(a), byte(b)); d < min {
				min = d
			}
		}
	}
	return min
}

// String renders a codeword as its 32-character chip string, chip 0 first.
func String(cw uint32) string {
	b := make([]byte, ChipsPerSymbol)
	for i := 0; i < ChipsPerSymbol; i++ {
		b[i] = '0' + byte(ChipAt(cw, i))
	}
	return string(b)
}
