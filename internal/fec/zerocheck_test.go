package fec_test

import (
	"bytes"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/fec"
	"ppr/internal/stats"
)

// Parity suite for DecodesToZero: on every input it must answer exactly
// allZero(Decode(coded).Bits), and fail with Decode's error where Decode
// fails. Decode on the byte-per-bit stream is the oracle (itself pinned to
// the frozen sovaref); DecodesToZero gets the same stream packed.

// blockBits is the coded length of one 25-byte FEC scheme block.
var blockBits = fec.EncodedLen(25 * 8)

func decodesToZeroOracle(coded []byte) (bool, error) {
	res, err := fec.Decode(coded)
	if err != nil {
		return false, err
	}
	for _, b := range res.Bits {
		if b != 0 {
			return false, nil
		}
	}
	return true, nil
}

// zeroCheck runs DecodesToZero on a byte-per-bit stream, tallying into
// tally.
func zeroCheck(coded []byte, tally *fec.ZeroCheckTally) (bool, error) {
	return fec.DecodesToZero(bitutil.PackChipBytes(coded), tally)
}

func assertZeroCheckParity(t testing.TB, coded []byte) {
	t.Helper()
	var tally fec.ZeroCheckTally
	got, gotErr := zeroCheck(coded, &tally)
	want, wantErr := decodesToZeroOracle(coded)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("error divergence on %d coded bits: got %v want %v", len(coded), gotErr, wantErr)
	}
	if got != want {
		var ones []int
		for i, b := range coded {
			if b != 0 {
				ones = append(ones, i)
			}
		}
		t.Fatalf("DecodesToZero = %v, Decode says %v on %d coded bits with ones at %v", got, want, len(coded), ones)
	}
	// The same stream as a view whose last word carries ones past its end,
	// which ChipWords leaves unspecified.
	dirty := append(append([]byte(nil), coded...), bytes.Repeat([]byte{1}, 64)...)
	if got, _ := fec.DecodesToZero(bitutil.PackChipBytes(dirty).Slice(0, len(coded)), &tally); got != want {
		t.Fatalf("DecodesToZero = %v on a view with ones past its end, Decode says %v", got, want)
	}
}

// withOnes returns an n-bit all-zero stream with the given positions set.
func withOnes(n int, pos ...int) []byte {
	out := make([]byte, n)
	for _, p := range pos {
		out[p] = 1
	}
	return out
}

// impulseOnes returns the positions of the ones of the codeword for a
// single 1 at data bit p of an nData-bit block: the weight-10 impulse
// response, shifted to branch p.
func impulseOnes(p, nData int) []int {
	data := make([]byte, nData)
	data[p] = 1
	var ones []int
	for i, b := range fec.Encode(data) {
		if b != 0 {
			ones = append(ones, i)
		}
	}
	return ones
}

// subsets calls fn with every k-element subset of set.
func subsets(set []int, k int, fn func([]int)) {
	pick := make([]int, 0, k)
	var rec func(from int)
	rec = func(from int) {
		if len(pick) == k {
			fn(pick)
			return
		}
		for i := from; i <= len(set)-(k-len(pick)); i++ {
			pick = append(pick, set[i])
			rec(i + 1)
			pick = pick[:len(pick)-1]
		}
	}
	rec(0)
}

// tieStreams returns block-length streams holding half the ones of a
// shifted impulse codeword: the zero path and the impulse path are at equal
// distance where they merge, so state 0's ACS ties and the tie rule
// decides the answer.
func tieStreams() [][]byte {
	nData := 25 * 8
	var out [][]byte
	for _, p := range []int{0, 1, 57, nData - 2, nData - 1} {
		ones := impulseOnes(p, nData)
		if len(ones) != 10 {
			panic("impulse codeword weight is not 10")
		}
		subsets(ones, 5, func(pick []int) {
			out = append(out, withOnes(blockBits, pick...))
		})
	}
	return out
}

func burstStream(rng *stats.RNG, n, maxLen int) []byte {
	out := make([]byte, n)
	l := 1 + rng.Intn(maxLen)
	start := rng.Intn(n)
	for i := start; i < start+l && i < n; i++ {
		if rng.Bool(0.5) {
			out[i] = 1
		}
	}
	out[start] = 1
	return out
}

func noisyStream(rng *stats.RNG, n int, rate float64) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Bool(rate) {
			out[i] = 1
		}
	}
	return out
}

func TestDecodesToZeroMatchesDecode(t *testing.T) {
	rng := stats.NewRNG(1313)

	// Every stream of coded length 0..2K, odd lengths and too-short
	// streams (Decode's two errors) included.
	for n := 0; n <= 2*fec.K; n++ {
		for v := 0; v < 1<<n; v++ {
			coded := make([]byte, n)
			for i := range coded {
				coded[i] = byte(v >> i & 1)
			}
			assertZeroCheckParity(t, coded)
		}
	}

	// All-zero streams at assorted lengths, odd ones included.
	for _, n := range []int{15, 16, 17, 40, 99, blockBits, blockBits + 1, 2 * blockBits} {
		assertZeroCheckParity(t, make([]byte, n))
	}

	// Every pattern of weight ≤ 4 on a 14-data-bit block.
	short := fec.EncodedLen(14)
	var rec func(coded []byte, from, left int)
	rec = func(coded []byte, from, left int) {
		assertZeroCheckParity(t, coded)
		if left == 0 {
			return
		}
		for i := from; i < len(coded); i++ {
			coded[i] = 1
			rec(coded, i+1, left-1)
			coded[i] = 0
		}
	}
	rec(make([]byte, short), 0, 4)

	// Random weight ≤ 4 patterns on full blocks.
	for i := 0; i < 2000; i++ {
		w := 1 + rng.Intn(4)
		pos := make([]int, w)
		for j := range pos {
			pos[j] = rng.Intn(blockBits)
		}
		assertZeroCheckParity(t, withOnes(blockBits, pos...))
	}

	// Ties at state 0: half the ones of a shifted impulse codeword keep the
	// zero path (ties go to predecessor 0); each is also checked with one
	// more error elsewhere. Six of the ten ones must lose it.
	lost := 0
	for _, coded := range tieStreams() {
		assertZeroCheckParity(t, coded)
		if ok, _ := zeroCheck(coded, new(fec.ZeroCheckTally)); !ok {
			lost++
		}
		coded[rng.Intn(len(coded))] ^= 1
		assertZeroCheckParity(t, coded)
	}
	if lost != 0 {
		t.Errorf("%d exact ties lost the zero path; ties go to predecessor 0", lost)
	}
	for _, p := range []int{3, 120} {
		subsets(impulseOnes(p, 25*8), 6, func(pick []int) {
			coded := withOnes(blockBits, pick...)
			assertZeroCheckParity(t, coded)
			if ok, _ := zeroCheck(coded, new(fec.ZeroCheckTally)); ok {
				t.Fatalf("6 of 10 impulse ones at %v decoded to zero", pick)
			}
		})
	}

	// Bursts and uniform noise on full blocks, and long streams.
	for i := 0; i < 2000; i++ {
		assertZeroCheckParity(t, burstStream(rng, blockBits, 80))
	}
	for _, rate := range []float64{0.002, 0.01, 0.03, 0.1, 0.3} {
		for i := 0; i < 200; i++ {
			assertZeroCheckParity(t, noisyStream(rng, blockBits, rate))
		}
	}
	for _, n := range []int{fec.EncodedLen(1500 * 8), 2*777 + 1} {
		assertZeroCheckParity(t, noisyStream(rng, n, 0.001))
		assertZeroCheckParity(t, noisyStream(rng, n, 0.03))
	}
}

// FuzzDecodesToZeroParity fuzzes the zero check against Decode over
// arbitrary coded streams (each input byte's low bit is one coded bit).
func FuzzDecodesToZeroParity(f *testing.F) {
	rng := stats.NewRNG(1414)
	for n := 0; n <= 2*fec.K; n++ {
		f.Add(make([]byte, n))
	}
	f.Add(make([]byte, 2*fec.K+1))
	f.Add(make([]byte, blockBits))
	f.Add(withOnes(blockBits, 0))
	f.Add(withOnes(blockBits, 5, 9))
	f.Add(withOnes(blockBits, 100, 101, 102))
	f.Add(withOnes(blockBits, 0, 7, 200, blockBits-1))
	for i, coded := range tieStreams() {
		if i%50 == 0 {
			f.Add(coded)
		}
	}
	for i := 0; i < 8; i++ {
		f.Add(burstStream(rng, blockBits, 64))
		f.Add(noisyStream(rng, blockBits, 0.03))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		coded := make([]byte, len(data))
		for i, b := range data {
			coded[i] = b & 1
		}
		assertZeroCheckParity(t, coded)
	})
}

// TestDecodesToZeroAllocs pins the check at zero allocations on clean,
// sparse and noisy blocks (metrics disabled, the default).
func TestDecodesToZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(1515)
	var tally fec.ZeroCheckTally
	for name, coded := range map[string][]byte{
		"clean":   make([]byte, blockBits),
		"weight3": withOnes(blockBits, 10, 11, 300),
		"weight5": withOnes(blockBits, 10, 40, 70, 100, 300),
		"noise3%": noisyStream(rng, blockBits, 0.03),
	} {
		packed := bitutil.PackChipBytes(coded)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := fec.DecodesToZero(packed, &tally); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}

// TestZeroCheckScreenBoundaries walks the two screens' edges against the
// Decode oracle: every weight-4, weight-5 and weight-6 pattern of a 14-bit
// window (the weight screen answers up to 5, where the worst pattern ties
// the impulse path), and the
// impulse codeword with exactly 5 and 6 of its ones at every branch offset
// — the 6-hit windows that fit must lose the zero path, and those cut off
// by the block end must be left to the trellis.
func TestZeroCheckScreenBoundaries(t *testing.T) {
	short := fec.EncodedLen(14)
	for _, n := range []int{short, blockBits} {
		for _, off := range []int{0, n/2 - 7, n - 14} {
			for _, w := range []int{4, 5, 6} {
				window := make([]int, 14)
				for i := range window {
					window[i] = off + i
				}
				subsets(window, w, func(pick []int) {
					assertZeroCheckParity(t, withOnes(n, pick...))
				})
			}
		}
	}

	rng := stats.NewRNG(1616)
	for _, nData := range []int{14, 25 * 8} {
		n := fec.EncodedLen(nData)
		nBranches := n / 2
		for u := 0; u < nBranches; u++ {
			// The impulse's ones shifted to branch u, cut at the block end.
			var ones []int
			for _, i := range impulseOnes(0, 1) {
				if 2*u+i < n {
					ones = append(ones, 2*u+i)
				}
			}
			fits := u+fec.K <= nBranches
			for _, hits := range []int{5, 6} {
				if hits > len(ones) {
					continue
				}
				check := func(pick []int) {
					coded := withOnes(n, pick...)
					assertZeroCheckParity(t, coded)
					if hits == 6 && fits {
						if ok, _ := zeroCheck(coded, new(fec.ZeroCheckTally)); ok {
							t.Fatalf("6 impulse ones at %v (branch %d of %d) decoded to zero", pick, u, nBranches)
						}
					}
				}
				if nData == 14 {
					subsets(ones, hits, check) // every subset at every offset
					continue
				}
				// Full blocks: a few random subsets per offset.
				for k := 0; k < 4; k++ {
					perm := rng.Perm(len(ones))
					pick := make([]int, hits)
					for i := range pick {
						pick[i] = ones[perm[i]]
					}
					check(pick)
				}
			}
		}
	}
}

// TestZeroCheckTally checks what the tally records: every call, the
// screened ones, and the trellis steps of the rest; Publish leaves it as
// is.
func TestZeroCheckTally(t *testing.T) {
	var tally fec.ZeroCheckTally
	for _, coded := range [][]byte{
		withOnes(blockBits, impulseOnes(9, 25*8)[:5]...), // weight screen
		withOnes(blockBits, impulseOnes(9, 25*8)[:6]...), // impulse screen
		withOnes(blockBits, 0, 80, 160, 240, 320, 400),   // trellis, repaired
		make([]byte, 3), // error: not counted
	} {
		zeroCheck(coded, &tally)
	}
	if want := (fec.ZeroCheckTally{Checks: 3, Screened: 2, Steps: int64(blockBits / 2)}); tally != want {
		t.Errorf("tally = %+v, want %+v", tally, want)
	}
	tally.Publish()
}
