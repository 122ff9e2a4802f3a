package frame_test

import (
	"fmt"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/frame/syncref"
	"ppr/internal/phy"
	"ppr/internal/stats"
)

// Parity suite for the word-parallel sync scanner: frame.FindSyncs must be
// bit-identical to the frozen seed implementation (internal/frame/syncref)
// on every stream — same detections, same offsets, same kinds, same
// distances, same order. The scan is deterministic (no RNG anywhere in the
// decode path), so equality is exact, not statistical.

// syncsEqual compares detection lists field by field.
func syncsEqual(a, b []frame.Sync) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parityStreams builds the table of chip streams the scan is checked on:
// pure noise, clean and noisy frames at aligned and unaligned offsets,
// zero-length payloads (maximally self-similar sync padding), collisions,
// and truncated tails.
func parityStreams() map[string][]byte {
	rng := stats.NewRNG(77)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	flip := func(chips []byte, rate float64) []byte {
		out := append([]byte(nil), chips...)
		for i := range out {
			if rng.Bool(rate) {
				out[i] ^= 1
			}
		}
		return out
	}
	frameChips := func(pay []byte) []byte {
		return frame.New(1, 2, 3, pay).AirChips().Bytes()
	}

	streams := map[string][]byte{
		"empty":        {},
		"short":        noise(100),
		"noise50k":     noise(50000),
		"cleanFrame":   frameChips([]byte("payload")),
		"zeroPayload":  frameChips(nil),
		"noisyFrame3%": flip(frameChips(make([]byte, 64)), 0.03),
		"noisyFrame8%": flip(frameChips(make([]byte, 64)), 0.08),
	}

	// Frame at an odd, unaligned offset surrounded by noise.
	off := append(noise(1237), frameChips([]byte("offset"))...)
	streams["offsetFrame"] = append(off, noise(301)...)

	// Two back-to-back frames, the second with its preamble region
	// overwritten by the tail of a third (collision by replacement).
	a := frameChips(make([]byte, 40))
	b := frameChips([]byte("second packet"))
	collide := append(append([]byte{}, a...), noise(517)...)
	start := len(collide)
	collide = append(collide, b...)
	interferer := frameChips([]byte("x"))
	copy(collide[start:], interferer[len(interferer)-400:])
	streams["collision"] = collide

	// Frame truncated mid-postamble: scan must clip cleanly at the end.
	c := frameChips([]byte("truncated"))
	streams["truncated"] = c[:len(c)-frame.SyncChips/2]

	// Noise with near-sync content: splice real sync padding fragments in.
	near := noise(20000)
	pad := frameChips(nil)[:frame.SyncChips]
	for i := 0; i+len(pad) < len(near); i += 2777 {
		copy(near[i:], pad[:frame.SyncChips-17])
	}
	streams["nearSync"] = near

	return streams
}

// stripeStreams places a clean and a 3%-chip-noise frame at every start
// offset in [0, 320) between random chips, with a noise tail sized so that
// limit = len-SyncChips ≡ start (mod 256): the scan's 256-chip stripes see
// the pattern's pad in every phase, k=3 candidates below offset 0 and a
// last stripe overrunning limit by every amount.
func stripeStreams() []namedStream {
	rng := stats.NewRNG(78)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	clean := frame.New(1, 2, 3, []byte("stripe")).AirChips().Bytes()
	var out []namedStream
	for start := 0; start < frame.SyncChips; start++ {
		for _, rate := range []float64{0, 0.03} {
			chips := append(noise(start), clean...)
			for i := start; i < len(chips); i++ {
				if rng.Bool(rate) {
					chips[i] ^= 1
				}
			}
			tail := ((start-len(chips)+frame.SyncChips)%256 + 256) % 256
			chips = append(chips, noise(tail)...)
			out = append(out, namedStream{fmt.Sprintf("start%d/noise%.2f", start, rate), chips})
		}
	}
	return out
}

// namedStream is one chip stream of an ordered parity table.
type namedStream struct {
	name  string
	chips []byte
}

// TestFindSyncsStripeBoundaries checks the stripe-sampled scan against the
// reference across every stripe phase and every limit residue.
func TestFindSyncsStripeBoundaries(t *testing.T) {
	residues := map[int]bool{}
	for _, s := range stripeStreams() {
		buf := frame.NewChipBuffer(s.chips)
		residues[(buf.Len()-frame.SyncChips)%256] = true
		for _, maxDist := range []int{5, frame.DefaultSyncMaxDist, 64, 80} {
			got := frame.FindSyncs(buf, maxDist)
			want := syncref.FindSyncs(buf, maxDist)
			if !syncsEqual(got, want) {
				t.Errorf("%s maxDist=%d:\n got %+v\nwant %+v", s.name, maxDist, got, want)
			}
		}
	}
	if len(residues) != 256 {
		t.Errorf("streams cover %d limit residues mod 256, want 256", len(residues))
	}
}

func TestFindSyncsMatchesSyncref(t *testing.T) {
	for name, chips := range parityStreams() {
		buf := frame.NewChipBuffer(chips)
		for _, maxDist := range []int{0, 5, frame.DefaultSyncMaxDist, 25, 32} {
			got := frame.FindSyncs(buf, maxDist)
			want := syncref.FindSyncs(buf, maxDist)
			if !syncsEqual(got, want) {
				t.Errorf("%s maxDist=%d:\n got %+v\nwant %+v", name, maxDist, got, want)
			}
		}
	}
}

// FuzzFindSyncsParity fuzzes the scanner against the frozen reference over
// arbitrary packed chip content. Each input byte becomes 8 chips.
func FuzzFindSyncsParity(f *testing.F) {
	pack := func(chips []byte) []byte {
		packed := make([]byte, 0, len(chips)/8+1)
		var acc byte
		for i, c := range chips {
			acc = acc<<1 | c&1
			if i%8 == 7 {
				packed = append(packed, acc)
				acc = 0
			}
		}
		return packed
	}
	for _, chips := range parityStreams() {
		f.Add(pack(chips), frame.DefaultSyncMaxDist)
	}
	for _, s := range stripeStreams() {
		f.Add(pack(s.chips), frame.DefaultSyncMaxDist)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxDist int) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		if maxDist < 0 || maxDist > frame.SyncChips {
			maxDist = frame.DefaultSyncMaxDist
		}
		chips := make([]byte, len(data)*8)
		for i, b := range data {
			for j := 0; j < 8; j++ {
				chips[i*8+j] = b >> uint(7-j) & 1
			}
		}
		buf := frame.NewChipBuffer(chips)
		got := frame.FindSyncs(buf, maxDist)
		want := syncref.FindSyncs(buf, maxDist)
		if !syncsEqual(got, want) {
			t.Fatalf("divergence on %d chips maxDist=%d:\n got %+v\nwant %+v",
				len(chips), maxDist, got, want)
		}
	})
}

// TestFindSyncsSpeedGate enforces the PR's performance floor: the
// word-parallel scan must beat the frozen seed implementation by at least
// 3x on a realistic stream (noise with embedded frames). The margin in
// practice is far larger; 3x keeps the gate robust on slow CI machines.
func TestFindSyncsSpeedGate(t *testing.T) {
	if testing.Short() {
		t.Skip("speed gate skipped in -short")
	}
	rng := stats.NewRNG(99)
	chips := make([]byte, 0, 300000)
	noise := make([]byte, 30000)
	for f := 0; f < 4; f++ {
		for i := range noise {
			noise[i] = byte(rng.Intn(2))
		}
		chips = append(chips, noise...)
		chips = append(chips, frame.New(1, 2, uint16(f), make([]byte, 200)).AirChips().Bytes()...)
	}
	buf := frame.NewChipBuffer(chips)

	newRes := testing.Benchmark(func(b *testing.B) {
		var syncs []frame.Sync
		for i := 0; i < b.N; i++ {
			syncs = frame.AppendSyncs(syncs[:0], buf, frame.DefaultSyncMaxDist)
		}
	})
	refRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			syncref.FindSyncs(buf, frame.DefaultSyncMaxDist)
		}
	})
	ratio := float64(refRes.NsPerOp()) / float64(newRes.NsPerOp())
	t.Logf("sync scan: new %v ref %v ratio %.1fx", newRes, refRes, ratio)
	if ratio < 3 {
		t.Errorf("word-parallel scan only %.2fx faster than syncref, want >= 3x", ratio)
	}
}

// TestReceiveSteadyStateAllocs pins the zero-alloc contract of the receive
// path: once the Receiver's scratch arenas have grown to the stream's
// working set, Receive allocates nothing.
func TestReceiveSteadyStateAllocs(t *testing.T) {
	rng := stats.NewRNG(42)
	chips := make([]byte, 0, 200000)
	noise := make([]byte, 5000)
	for f := 0; f < 3; f++ {
		for i := range noise {
			noise[i] = byte(rng.Intn(2))
		}
		chips = append(chips, noise...)
		fr := frame.New(1, 2, uint16(f), make([]byte, 150)).AirChips().Bytes()
		// Light chip noise so the decode path sees non-trivial distances.
		for i := range fr {
			if rng.Bool(0.01) {
				fr[i] ^= 1
			}
		}
		chips = append(chips, fr...)
	}
	buf := frame.NewChipBuffer(chips)
	rx := frame.NewReceiver(phy.HardDecoder{})

	recs := rx.Receive(buf) // grow the arenas once
	if len(recs) == 0 {
		t.Fatal("test stream produced no receptions")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if got := rx.Receive(buf); len(got) != len(recs) {
			t.Fatalf("reception count changed: %d != %d", len(got), len(recs))
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Receive allocates %.1f times per call, want 0", allocs)
	}
}

// TestReceiveSyncedGoldenCollisionStream pins the receiver's behaviour on a
// deterministic multi-packet collision stream: packet A delivered whole via
// its preamble, packet B's preamble destroyed by an interferer and
// recovered via postamble rollback, receptions ordered by payload position.
func TestReceiveSyncedGoldenCollisionStream(t *testing.T) {
	payA := []byte("packet A payload: 0123456789")
	payB := []byte("packet B payload, longer than A's: abcdefghijklmnopqrstuvwxyz")
	fa := frame.New(1, 2, 10, payA)
	fb := frame.New(1, 3, 20, payB)

	rng := stats.NewRNG(7)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}

	chips := noise(997)
	aStart := len(chips)
	chips = append(chips, fa.AirChips().Bytes()...)
	chips = append(chips, noise(333)...)
	bStart := len(chips)
	bChips := fb.AirChips().Bytes()
	// Destroy B's preamble and header with random chips — only the
	// postamble path can recover it.
	wreck := noise((frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte)
	copy(bChips, wreck)
	chips = append(chips, bChips...)
	chips = append(chips, noise(501)...)

	buf := frame.NewChipBuffer(chips)
	rx := frame.NewReceiver(phy.HardDecoder{})
	recs := rx.Receive(buf)

	var verified []frame.Reception
	for _, rec := range recs {
		if rec.HeaderOK {
			verified = append(verified, rec)
		}
	}
	if len(verified) != 2 {
		t.Fatalf("got %d verified receptions, want 2: %+v", len(verified), recs)
	}
	a, b := verified[0], verified[1]

	wantAStart := aStart + (frame.SyncBytes+frame.HeaderBytes)*frame.ChipsPerByte
	if a.Kind != frame.SyncPreamble || a.PayloadStartChip != wantAStart {
		t.Errorf("A: kind %v start %d, want preamble at %d", a.Kind, a.PayloadStartChip, wantAStart)
	}
	if !a.CRCOK || a.MissingPrefix != 0 || string(a.PayloadBytes) != string(payA) {
		t.Errorf("A not delivered whole: crc=%v missing=%d payload=%q",
			a.CRCOK, a.MissingPrefix, a.PayloadBytes)
	}

	wantBStart := bStart + (frame.SyncBytes+frame.HeaderBytes)*frame.ChipsPerByte
	if b.Kind != frame.SyncPostamble || b.PayloadStartChip != wantBStart {
		t.Errorf("B: kind %v start %d, want postamble at %d", b.Kind, b.PayloadStartChip, wantBStart)
	}
	if !b.CRCOK || b.MissingPrefix != 0 || string(b.PayloadBytes) != string(payB) {
		t.Errorf("B not recovered via postamble: crc=%v missing=%d payload=%q",
			b.CRCOK, b.MissingPrefix, b.PayloadBytes)
	}
	if b.Hdr.Src != 3 || b.Hdr.Seq != 20 || int(b.Hdr.Length) != len(payB) {
		t.Errorf("B header %+v", b.Hdr)
	}
}
