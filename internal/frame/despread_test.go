package frame

import (
	"reflect"
	"testing"

	"ppr/internal/phy"
	"ppr/internal/stats"
)

// countingDecoder is a hard decoder that counts its despreads.
type countingDecoder struct {
	phy.HardDecoder
	n *int
}

func (d countingDecoder) Decode(o phy.Observation) phy.Decision {
	*d.n++
	return d.HardDecoder.Decode(o)
}

// countDespreads receives buf with a counting decoder and returns the
// receptions and the number of codewords despread.
func countDespreads(buf *ChipBuffer) ([]Reception, int) {
	n := 0
	return NewReceiver(countingDecoder{n: &n}).Receive(buf), n
}

// TestCleanFrameDespreadsPayloadOnce: once the preamble path has decoded
// the whole payload, the postamble path parses the trailer and stops — a
// clean frame costs one payload despread plus header, CRC and trailer.
func TestCleanFrameDespreadsPayloadOnce(t *testing.T) {
	payload := []byte("despread me exactly once")
	f := New(1, 2, 3, payload)
	recs, n := countDespreads(f.AirChips())
	if len(recs) != 1 || recs[0].Kind != SyncPreamble || !recs[0].CRCOK {
		t.Fatalf("receptions %+v, want one whole preamble reception", recs)
	}
	want := (HeaderBytes + len(payload) + CRC32Bytes + HeaderBytes) * SymbolsPerByte
	if n != want {
		t.Errorf("despread %d codewords, want %d (header + payload + CRC + trailer)", n, want)
	}
}

// TestDestroyedPreambleStillDecodedViaPostamble: with the preamble gone
// there is no earlier reception, so the postamble path decodes the whole
// packet; with the preamble intact but its header corrupt, the earlier
// reception is not header-verified and the postamble path decodes too.
func TestDestroyedPreambleStillDecodedViaPostamble(t *testing.T) {
	payload := []byte("rolled back from the postamble")
	f := New(1, 2, 3, payload)
	rng := stats.NewRNG(11)

	t.Run("preamble", func(t *testing.T) {
		chips := f.AirChips()
		chips.FillUniform(0, (SyncBytes+HeaderBytes)*ChipsPerByte, rng.Uint64)
		recs, n := countDespreads(chips)
		if len(recs) != 1 || recs[0].Kind != SyncPostamble || !recs[0].CRCOK {
			t.Fatalf("receptions %+v, want one whole postamble reception", recs)
		}
		want := (HeaderBytes + len(payload) + CRC32Bytes) * SymbolsPerByte
		if n != want {
			t.Errorf("despread %d codewords, want %d (trailer + payload + CRC)", n, want)
		}
	})
	t.Run("header", func(t *testing.T) {
		chips := f.AirChips()
		chips.FillUniform(SyncChips, SyncChips+HeaderBytes*ChipsPerByte, rng.Uint64)
		recs, n := countDespreads(chips)
		var whole *Reception
		for i := range recs {
			if recs[i].HeaderOK {
				whole = &recs[i]
			}
		}
		if whole == nil || whole.Kind != SyncPostamble || !whole.CRCOK {
			t.Fatalf("receptions %+v, want a whole postamble reception", recs)
		}
		want := (HeaderBytes + HeaderBytes + len(payload) + CRC32Bytes) * SymbolsPerByte
		if n != want {
			t.Errorf("despread %d codewords, want %d (header + trailer + payload + CRC)", n, want)
		}
	})
}

// receiveEachSync decodes every sync on its own fresh receiver and
// dedupes the union: the receiver's output with no postamble decode ever
// skipped.
func receiveEachSync(buf *ChipBuffer, syncs []Sync) []Reception {
	var all []Reception
	for _, s := range syncs {
		all = append(all, NewReceiver(phy.HardDecoder{}).ReceiveSynced(buf, []Sync{s})...)
	}
	return dedupe(all)
}

// TestPostambleSkipPreservesReceptions: skipping the postamble decode of
// packets already received whole changes no reception on multi-packet
// streams — collisions, back-to-back frames, and noisy frames — and on a
// corrupt-header empty frame, whose failed preamble reception shares the
// payload start.
func TestPostambleSkipPreservesReceptions(t *testing.T) {
	rng := stats.NewRNG(12)
	noise := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(rng.Intn(2))
		}
		return out
	}
	a := New(1, 2, 10, []byte("packet A payload: 0123456789")).AirChips().Bytes()
	b := New(1, 3, 20, []byte("packet B payload, longer than A's")).AirChips().Bytes()

	collision := append(noise(997), a...)
	collision = append(collision, noise(333)...)
	start := len(collision)
	collision = append(collision, b...)
	copy(collision[start:], noise((SyncBytes+HeaderBytes)*ChipsPerByte))
	collision = append(collision, noise(501)...)

	// A short packet whose preamble is lost right after a longer whole one:
	// the long packet's reception has enough decisions but another start.
	shortAfterLong := append(append(noise(64), b...), a...)
	copy(shortAfterLong[64+len(b):], noise((SyncBytes+HeaderBytes)*ChipsPerByte))

	// A zero-length packet with a corrupt header: its preamble reception
	// shares the payload start but is not header-verified.
	empty := New(1, 4, 30, nil).AirChips().Bytes()
	copy(empty[SyncChips:], noise(HeaderBytes*ChipsPerByte))

	noisy := append(append(noise(100), a...), b...)
	for i := range noisy {
		if rng.Bool(0.04) {
			noisy[i] ^= 1
		}
	}

	streams := map[string][]byte{
		"collision":      collision,
		"backToBack":     append(append([]byte{}, a...), b...),
		"noisy4%":        noisy,
		"shortAfterLong": shortAfterLong,
		"emptyBadHeader": empty,
	}
	for name, chips := range streams {
		buf := NewChipBuffer(chips)
		syncs := FindSyncs(buf, DefaultSyncMaxDist)
		got := NewReceiver(phy.HardDecoder{}).ReceiveSynced(buf, syncs)
		if want := receiveEachSync(buf, syncs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}
