package chipseq

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Published sequences from IEEE 802.15.4-2006 Table 24 (chip c0 first).
var published = map[byte]string{
	0:  "11011001110000110101001000101110",
	1:  "11101101100111000011010100100010",
	2:  "00101110110110011100001101010010",
	5:  "00110101001000101110110110011100",
	7:  "10011100001101010010001011101101",
	8:  "10001100100101100000011101111011",
	12: "00000111011110111000110010010110",
	15: "11001001011000000111011110111000",
}

func TestPublishedSequences(t *testing.T) {
	for sym, want := range published {
		if got := String(Codeword(sym)); got != want {
			t.Errorf("symbol %d:\n got  %s\n want %s", sym, got, want)
		}
	}
}

func TestAllCodewordsDistinct(t *testing.T) {
	seen := map[uint32]byte{}
	for s := byte(0); s < NumSymbols; s++ {
		cw := Codeword(s)
		if prev, dup := seen[cw]; dup {
			t.Fatalf("symbols %d and %d share codeword %s", prev, s, String(cw))
		}
		seen[cw] = s
	}
}

func TestRotationStructure(t *testing.T) {
	// Symbols 1..7 are 4-chip right rotations of their predecessor.
	for s := byte(1); s < 8; s++ {
		want := rotateRightChips(Codeword(s-1), 4)
		if Codeword(s) != want {
			t.Errorf("symbol %d is not a 4-chip rotation of symbol %d", s, s-1)
		}
	}
}

func TestConjugateStructure(t *testing.T) {
	// Symbols 8..15 differ from 0..7 exactly on the 16 odd-indexed chips.
	for s := byte(0); s < 8; s++ {
		a, b := Codeword(s), Codeword(s+8)
		if d := PairDistance(s, s+8); d != 16 {
			t.Errorf("conjugate distance(%d,%d) = %d, want 16", s, s+8, d)
		}
		for i := 0; i < ChipsPerSymbol; i += 2 {
			if ChipAt(a, i) != ChipAt(b, i) {
				t.Errorf("symbol %d vs %d differ at even chip %d", s, s+8, i)
			}
		}
	}
}

func TestMinPairDistance(t *testing.T) {
	// The 802.15.4 code book's minimum pairwise distance is what separates
	// "correct" (distance ~0-2) from "incorrect" (distance near min/2+) hints.
	min := MinPairDistance()
	if min < 10 || min > 20 {
		t.Errorf("MinPairDistance = %d, outside plausible [10,20] for this code book", min)
	}
	t.Logf("code book minimum pairwise Hamming distance: %d", min)
}

func TestNearestHardExact(t *testing.T) {
	for s := byte(0); s < NumSymbols; s++ {
		got, d := NearestHard(Codeword(s))
		if got != s || d != 0 {
			t.Errorf("NearestHard(codeword %d) = %d, dist %d", s, got, d)
		}
	}
}

func TestNearestHardFewChipErrors(t *testing.T) {
	// With fewer than MinPairDistance/2 chip errors, decoding must recover
	// the transmitted symbol and report exactly the number of flipped chips.
	maxFix := MinPairDistance()/2 - 1
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		s := byte(rng.Intn(NumSymbols))
		nerr := rng.Intn(maxFix + 1)
		cw := Codeword(s)
		flipped := map[int]bool{}
		for len(flipped) < nerr {
			flipped[rng.Intn(ChipsPerSymbol)] = true
		}
		for i := range flipped {
			cw ^= 1 << uint(31-i)
		}
		got, d := NearestHard(cw)
		if got != s {
			t.Fatalf("trial %d: %d chip errors decoded %d, want %d", trial, nerr, got, s)
		}
		if d != nerr {
			t.Fatalf("trial %d: distance %d, want %d", trial, d, nerr)
		}
	}
}

func TestNearestHardDistanceNeverExceedsErrors(t *testing.T) {
	// Whatever is received, the reported distance is at most the distance to
	// the transmitted codeword (nearest can only be closer).
	f := func(s uint8, noise uint32) bool {
		sym := s % NumSymbols
		rx := Codeword(sym) ^ noise
		_, d := NearestHard(rx)
		txDist := 0
		for i := 0; i < 32; i++ {
			txDist += int(noise>>uint(i)) & 1
		}
		return d <= txDist
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrelatePerfect(t *testing.T) {
	for s := byte(0); s < NumSymbols; s++ {
		r := make([]float64, ChipsPerSymbol)
		copy(r, Signed(s)[:])
		if c := Correlate(r, s); c != ChipsPerSymbol {
			t.Errorf("self-correlation of %d = %v, want %d", s, c, ChipsPerSymbol)
		}
	}
}

func TestCorrelateCrossBelowSelf(t *testing.T) {
	for a := byte(0); a < NumSymbols; a++ {
		r := make([]float64, ChipsPerSymbol)
		copy(r, Signed(a)[:])
		for b := byte(0); b < NumSymbols; b++ {
			if a == b {
				continue
			}
			if c := Correlate(r, b); c >= ChipsPerSymbol {
				t.Errorf("cross-correlation C(%d,%d) = %v not below %d", a, b, c, ChipsPerSymbol)
			}
		}
	}
}

func TestCorrelationDistanceIdentity(t *testing.T) {
	// For ±1 samples, C(R, Cs) = 32 − 2·HammingDist(R, Cs).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		var rx uint32
		r := make([]float64, ChipsPerSymbol)
		for i := range r {
			if rng.Intn(2) == 1 {
				r[i] = 1
				rx |= 1 << uint(31-i)
			} else {
				r[i] = -1
			}
		}
		for s := byte(0); s < NumSymbols; s++ {
			wantC := float64(ChipsPerSymbol - 2*popcount(rx^Codeword(s)))
			if c := Correlate(r, s); c != wantC {
				t.Fatalf("C mismatch: got %v want %v", c, wantC)
			}
		}
	}
}

func popcount(v uint32) int {
	n := 0
	for v != 0 {
		n += int(v & 1)
		v >>= 1
	}
	return n
}

func TestNearestSoftMatchesHardOnSignSamples(t *testing.T) {
	// On clean ±1 samples, soft and hard decisions agree.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		s := byte(rng.Intn(NumSymbols))
		r := make([]float64, ChipsPerSymbol)
		copy(r, Signed(s)[:])
		// flip a few chips
		for k := 0; k < rng.Intn(5); k++ {
			i := rng.Intn(ChipsPerSymbol)
			r[i] = -r[i]
		}
		soft, best, runnerUp := NearestSoft(r)
		var rx uint32
		for i, v := range r {
			if v > 0 {
				rx |= 1 << uint(31-i)
			}
		}
		hard, _ := NearestHard(rx)
		if soft != hard {
			t.Fatalf("trial %d: soft %d != hard %d", trial, soft, hard)
		}
		if best < runnerUp {
			t.Fatalf("best %v < runnerUp %v", best, runnerUp)
		}
	}
}

func TestSoftNoiseImmunity(t *testing.T) {
	// Small Gaussian-ish perturbations must not change the soft decision.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := byte(rng.Intn(NumSymbols))
		r := make([]float64, ChipsPerSymbol)
		for i, v := range Signed(s) {
			r[i] = v + rng.NormFloat64()*0.05
		}
		got, _, _ := NearestSoft(r)
		if got != s {
			t.Fatalf("trial %d: tiny noise flipped decision %d -> %d", trial, s, got)
		}
	}
}

func TestChipAt(t *testing.T) {
	cw := Codeword(0)
	for i, ch := range baseChips {
		want := int(ch - '0')
		if got := ChipAt(cw, i); got != want {
			t.Errorf("chip %d = %d, want %d", i, got, want)
		}
	}
}

func TestCodewordPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Codeword(16)
}

func TestStringRoundTrip(t *testing.T) {
	for s := byte(0); s < NumSymbols; s++ {
		str := String(Codeword(s))
		if len(str) != ChipsPerSymbol {
			t.Fatalf("length %d", len(str))
		}
		var cw uint32
		for i := 0; i < ChipsPerSymbol; i++ {
			if str[i] == '1' {
				cw |= 1 << uint(31-i)
			}
		}
		if cw != Codeword(s) {
			t.Errorf("round trip failed for symbol %d", s)
		}
	}
}

// nearestBrute is the despreader's definition, written as plainly as
// possible: 16 popcounts, the lowest symbol winning ties.
func nearestBrute(received uint32) (byte, int) {
	best, bestD := byte(0), ChipsPerSymbol+1
	for s := 0; s < NumSymbols; s++ {
		if d := bits.OnesCount32(received ^ codebook[s]); d < bestD {
			best, bestD = byte(s), d
		}
	}
	return best, bestD
}

// TestNearestHardScreen checks the screen's two premises from the code
// book — minimum distance 2·screenRadius+2 and half-codeword minimum
// distance 2·halfRadius+1 — then pins NearestHard to the brute-force
// definition on every word within screenRadius+1 chips of every codeword
// (~18M words, covering the screen's edge and the first words past it)
// and on 1M seeded random words.
func TestNearestHardScreen(t *testing.T) {
	if d := MinPairDistance(); d != 2*screenRadius+2 {
		t.Fatalf("code book minimum distance %d, screen assumes %d", d, 2*screenRadius+2)
	}
	for _, shift := range []uint{16, 0} {
		halfMin := 17
		for a := 0; a < NumSymbols; a++ {
			for b := a + 1; b < NumSymbols; b++ {
				halfMin = min(halfMin, bits.OnesCount16(uint16(codebook[a]>>shift)^uint16(codebook[b]>>shift)))
			}
		}
		if halfMin != 2*halfRadius+1 {
			t.Fatalf("half (shift %d) minimum distance %d, screen assumes %d", shift, halfMin, 2*halfRadius+1)
		}
	}

	check := func(rx uint32) {
		gs, gd := NearestHard(rx)
		ws, wd := nearestBrute(rx)
		if gs != ws || gd != wd {
			t.Fatalf("NearestHard(%08x) = (%d, %d), brute force (%d, %d)", rx, gs, gd, ws, wd)
		}
	}
	words := 0
	var flip func(rx uint32, from, left int)
	flip = func(rx uint32, from, left int) {
		check(rx)
		words++
		if left == 0 {
			return
		}
		for i := from; i < ChipsPerSymbol; i++ {
			flip(rx^1<<uint(i), i+1, left-1)
		}
	}
	for s := 0; s < NumSymbols; s++ {
		flip(codebook[s], 0, screenRadius+1)
	}
	rng := rand.New(rand.NewSource(1717))
	for i := 0; i < 1<<20; i++ {
		check(rng.Uint32())
	}
	t.Logf("%d words near codewords, %d random", words, 1<<20)
}

// FuzzNearestHard pins NearestHard to the brute-force definition on
// arbitrary words.
func FuzzNearestHard(f *testing.F) {
	for s := 0; s < NumSymbols; s++ {
		f.Add(codebook[s])
		f.Add(codebook[s] ^ 0x0000001F)    // 5 errors in the low half
		f.Add(codebook[s] ^ 0x0007000E)    // 3 + 3 errors
		f.Add(codebook[s] ^ 0x8000003F)    // 7 errors
		f.Add(codebook[s] ^ codebook[s^1]) // the XOR of two codewords
	}
	f.Fuzz(func(t *testing.T, rx uint32) {
		gs, gd := NearestHard(rx)
		ws, wd := nearestBrute(rx)
		if gs != ws || gd != wd {
			t.Fatalf("NearestHard(%08x) = (%d, %d), brute force (%d, %d)", rx, gs, gd, ws, wd)
		}
	})
}
