package fec_test

import (
	"math"
	"testing"
	"time"

	"ppr/internal/fec"
	"ppr/internal/fec/sovaref"
	"ppr/internal/stats"
)

// Parity suite for the flattened SOVA trellis: fec.Decode must be
// bit-identical to the frozen seed implementation (internal/fec/sovaref) —
// same decoded bits AND same per-bit reliabilities, including the exact
// tie-breaking of the ACS recursion. Decoding is deterministic, so equality
// is exact.

func assertDecodeParity(t *testing.T, coded []byte) {
	t.Helper()
	got, gotErr := fec.Decode(coded)
	want, wantErr := sovaref.Decode(coded)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error divergence on %d coded bits: got %v want %v", len(coded), gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got.Bits) != len(want.Bits) {
		t.Fatalf("bit count %d != %d", len(got.Bits), len(want.Bits))
	}
	for i := range got.Bits {
		if got.Bits[i] != want.Bits[i] {
			t.Fatalf("bit %d: got %d want %d", i, got.Bits[i], want.Bits[i])
		}
	}
	for i := range got.Reliability {
		if got.Reliability[i] != want.Reliability[i] {
			t.Fatalf("reliability %d: got %v want %v", i, got.Reliability[i], want.Reliability[i])
		}
	}
}

func TestDecodeMatchesSovaref(t *testing.T) {
	rng := stats.NewRNG(123)
	randBits := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}

	// Valid encodings at assorted lengths, clean and with channel errors.
	for _, nData := range []int{1, 4, 7, 32, 100, 333, 1024} {
		coded := fec.Encode(randBits(nData))
		assertDecodeParity(t, coded)
		for _, rate := range []float64{0.01, 0.05, 0.11, 0.25} {
			noisy := append([]byte(nil), coded...)
			for i := range noisy {
				if rng.Bool(rate) {
					noisy[i] ^= 1
				}
			}
			assertDecodeParity(t, noisy)
		}
	}

	// Arbitrary (non-codeword) streams: the decoders must still agree on
	// every branch metric tie and unreachable-state margin.
	for _, nBranches := range []int{fec.K - 1, fec.K, 20, 77, 500} {
		assertDecodeParity(t, randBits(nBranches*fec.Rate))
	}
	// All-zero and all-one streams hit maximal tie-breaking.
	assertDecodeParity(t, make([]byte, 60))
	ones := make([]byte, 60)
	for i := range ones {
		ones[i] = 1
	}
	assertDecodeParity(t, ones)

	// Error cases: odd length and too-short streams.
	assertDecodeParity(t, []byte{1})
	assertDecodeParity(t, randBits((fec.K-2)*fec.Rate))
}

// FuzzDecodeParity fuzzes the flattened decoder against the frozen
// reference over arbitrary coded streams (each input byte's low bit is one
// coded bit).
func FuzzDecodeParity(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 2*(fec.K-1)))
	f.Add(fec.Encode([]byte{1, 0, 1, 1, 0, 0, 1, 0}))
	seed := fec.Encode(fec.BitsFromBytes([]byte("fuzz me")))
	seed[3] ^= 1
	seed[17] ^= 1
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		coded := make([]byte, len(data))
		for i, b := range data {
			coded[i] = b & 1
		}
		assertDecodeParity(t, coded)
	})
}

// TestBitsBytesRoundTripAllLengths is the pre-sizing property test: for
// every payload length 0..256, bytes -> bits -> bytes is the identity and
// the intermediate slices have exactly their final lengths.
func TestBitsBytesRoundTripAllLengths(t *testing.T) {
	rng := stats.NewRNG(321)
	for n := 0; n <= 256; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		bits := fec.BitsFromBytes(data)
		if len(bits) != n*8 || len(bits) != cap(bits) {
			t.Fatalf("n=%d: bits len %d cap %d, want exactly %d", n, len(bits), cap(bits), n*8)
		}
		back := fec.BytesFromBits(bits)
		if len(back) != n {
			t.Fatalf("n=%d: round trip length %d", n, len(back))
		}
		for i := range back {
			if back[i] != data[i] {
				t.Fatalf("n=%d byte %d: %#x != %#x", n, i, back[i], data[i])
			}
		}
	}
}

// TestDecisionsFromResultPreSized checks the conversion's exact output
// length and hint clamping across lengths.
func TestDecisionsFromResultPreSized(t *testing.T) {
	rng := stats.NewRNG(555)
	for _, nBits := range []int{0, 4, 8, 40, 400} {
		res := fec.Result{
			Bits:        make([]byte, nBits),
			Reliability: make([]float64, nBits),
		}
		for i := range res.Bits {
			res.Bits[i] = byte(rng.Intn(2))
			res.Reliability[i] = float64(rng.Intn(40))
		}
		ds := fec.DecisionsFromResult(res)
		if len(ds) != nBits/4 || len(ds) != cap(ds) {
			t.Fatalf("nBits=%d: decisions len %d cap %d", nBits, len(ds), cap(ds))
		}
		for i, d := range ds {
			wantSym := res.Bits[i*4]&1 | res.Bits[i*4+1]&1<<1 | res.Bits[i*4+2]&1<<2 | res.Bits[i*4+3]&1<<3
			if d.Symbol != wantSym {
				t.Fatalf("symbol %d: %d != %d", i, d.Symbol, wantSym)
			}
			minRel := math.Inf(1)
			for j := 0; j < 4; j++ {
				minRel = math.Min(minRel, res.Reliability[i*4+j])
			}
			wantHint := 16.0 - minRel
			if wantHint < 0 {
				wantHint = 0
			}
			if d.Hint != wantHint {
				t.Fatalf("hint %d: %v != %v", i, d.Hint, wantHint)
			}
		}
	}
}

// TestSOVADecodeSpeedGate enforces the PR's performance floor: the
// flattened trellis must beat the frozen seed implementation by at least 3x
// on a full-size coded packet. The two decoders are timed in interleaved
// batches (minNsPerOp), so a load spike cannot land on one side only.
func TestSOVADecodeSpeedGate(t *testing.T) {
	if testing.Short() {
		t.Skip("speed gate skipped in -short")
	}
	rng := stats.NewRNG(888)
	data := make([]byte, 1500*8) // 1500-byte payload in bits
	for i := range data {
		data[i] = byte(rng.Intn(2))
	}
	coded := fec.Encode(data)
	for i := range coded {
		if rng.Bool(0.03) {
			coded[i] ^= 1
		}
	}

	if _, err := fec.Decode(coded); err != nil {
		t.Fatal(err)
	}
	if _, err := sovaref.Decode(coded); err != nil {
		t.Fatal(err)
	}
	ns := minNsPerOp(7, 150*time.Millisecond,
		func() { fec.Decode(coded) },
		func() { sovaref.Decode(coded) })
	ratio := ns[1] / ns[0]
	t.Logf("sova decode: new %.0f ns/op ref %.0f ns/op ratio %.1fx", ns[0], ns[1], ratio)
	if ratio < 3 {
		t.Errorf("flattened trellis only %.2fx faster than sovaref, want >= 3x", ratio)
	}
}

// minNsPerOp times each fn in alternating batches: every one of rounds
// rounds runs each fn for a batch sized to take about batch, and each fn's
// fastest batch gives its ns/op. Alternating exposes both sides of a speed
// gate to the same background load, and the per-side minimum discards the
// batches a neighbouring process stole time from.
func minNsPerOp(rounds int, batch time.Duration, fns ...func()) []float64 {
	sizes := make([]int, len(fns))
	for k, fn := range fns {
		n, start := 0, time.Now()
		for n == 0 || time.Since(start) < batch/10 {
			fn()
			n++
		}
		sizes[k] = max(1, int(float64(n)*float64(batch)/float64(time.Since(start))))
	}
	best := make([]float64, len(fns))
	for r := 0; r < rounds; r++ {
		for k, fn := range fns {
			start := time.Now()
			for i := 0; i < sizes[k]; i++ {
				fn()
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(sizes[k])
			if r == 0 || ns < best[k] {
				best[k] = ns
			}
		}
	}
	return best
}
