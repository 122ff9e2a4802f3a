package interleave

import (
	"bytes"
	"testing"

	"ppr/internal/fec"
	"ppr/internal/stats"
)

func TestRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, geom := range [][2]int{{1, 1}, {4, 8}, {16, 16}, {32, 5}} {
		b := New(geom[0], geom[1])
		for blocks := 1; blocks <= 3; blocks++ {
			data := make([]byte, b.Size()*blocks)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			got := b.Deinterleave(b.Interleave(data))
			if !bytes.Equal(got, data) {
				t.Fatalf("%dx%d x%d blocks: round trip failed", geom[0], geom[1], blocks)
			}
		}
	}
}

// TestDataIndexTransposesTiles pins the index map on a 2×3 tile: the data
// is written row-major [[0 1 2] [3 4 5]] and sent column-major, tile by
// tile.
func TestDataIndexTransposesTiles(t *testing.T) {
	b := New(2, 3)
	want := []byte{0, 3, 1, 4, 2, 5, 6, 9, 7, 10, 8, 11}
	for p, d := range want {
		if got := b.DataIndex(p); got != int(d) {
			t.Errorf("DataIndex(%d) = %d, want %d", p, got, d)
		}
	}
	data := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if got := b.Interleave(data); !bytes.Equal(got, want) {
		t.Errorf("Interleave = %v, want %v", got, want)
	}
	if got := b.Deinterleave(want); !bytes.Equal(got, data) {
		t.Errorf("Deinterleave = %v, want %v", got, data)
	}
}

func TestInterleaveIsPermutation(t *testing.T) {
	b := New(8, 16)
	data := make([]byte, b.Size())
	for i := range data {
		data[i] = byte(i)
	}
	out := b.Interleave(data)
	seen := make([]bool, len(data))
	for _, v := range out {
		if seen[v] {
			t.Fatal("duplicate symbol after interleave")
		}
		seen[v] = true
	}
}

func TestBurstSpreading(t *testing.T) {
	// A contiguous channel burst of length ≤ rows must land ≥ rows apart
	// after deinterleaving: no two errors adjacent.
	b := New(16, 32)
	data := make([]byte, b.Size())
	tx := b.Interleave(data)
	// Burst of 16 symbols mid-stream.
	for i := 100; i < 116; i++ {
		tx[i] ^= 0xff
	}
	rx := b.Deinterleave(tx)
	var errPos []int
	for i, v := range rx {
		if v != 0 {
			errPos = append(errPos, i)
		}
	}
	if len(errPos) != 16 {
		t.Fatalf("%d errors after deinterleave, want 16", len(errPos))
	}
	for i := 1; i < len(errPos); i++ {
		if gap := errPos[i] - errPos[i-1]; gap < b.MaxSpreadBurst() {
			t.Fatalf("errors %d and %d only %d apart (rows=%d)", errPos[i-1], errPos[i], gap, b.rows)
		}
	}
}

func TestPad(t *testing.T) {
	b := New(4, 4)
	padded, orig := b.Pad(make([]byte, 21))
	if orig != 21 || len(padded) != 32 {
		t.Errorf("padded to %d (orig %d)", len(padded), orig)
	}
	exact, _ := b.Pad(make([]byte, 16))
	if len(exact) != 16 {
		t.Error("exact multiple should not pad")
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 5)
}

func TestLengthPanics(t *testing.T) {
	b := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Interleave(make([]byte, 15))
}

// TestInterleavingRescuesConvolutionalCode quantifies the Sec. 8.3
// trade-off: a burst that defeats the K=7 code directly becomes correctable
// once interleaved deeply enough — and stays fatal when the interleaver is
// under-provisioned, the a-priori-knowledge problem the paper points out.
func TestInterleavingRescuesConvolutionalCode(t *testing.T) {
	rng := stats.NewRNG(2)
	payloadBits := make([]byte, 3000)
	for i := range payloadBits {
		payloadBits[i] = byte(rng.Intn(2))
	}
	coded := fec.Encode(payloadBits)

	run := func(ilv *Block, burstLen int) int {
		tx := append([]byte(nil), coded...)
		var origLen int
		if ilv != nil {
			tx, origLen = ilv.Pad(tx)
			tx = ilv.Interleave(tx)
		}
		// One contiguous burst of flips.
		lo := len(tx) / 3
		for i := lo; i < lo+burstLen && i < len(tx); i++ {
			tx[i] ^= 1
		}
		if ilv != nil {
			tx = ilv.Deinterleave(tx)[:origLen]
		}
		res, err := fec.Decode(tx)
		if err != nil {
			t.Fatal(err)
		}
		errs := 0
		for i := range payloadBits {
			if res.Bits[i] != payloadBits[i] {
				errs++
			}
		}
		return errs
	}

	const burst = 60
	direct := run(nil, burst)
	if direct == 0 {
		t.Fatal("a 60-bit burst should defeat the bare code")
	}
	deep := New(128, 64)
	if errs := run(&deep, burst); errs != 0 {
		t.Errorf("deep interleaver left %d errors for a %d-bit burst", errs, burst)
	}
	shallow := New(8, 64)
	if errs := run(&shallow, burst); errs == 0 {
		t.Error("under-provisioned interleaver unexpectedly corrected the burst")
	}
	t.Logf("burst %d: direct %d errors, deep interleave 0, shallow interleave >0", burst, direct)
}
