package schemes_test

import (
	"testing"

	"ppr/internal/experiments"
	"ppr/internal/fec"
	"ppr/internal/schemes"
)

func nonzero(bits []byte) bool {
	for _, b := range bits {
		if b != 0 {
			return true
		}
	}
	return false
}

// fullDecodeRepaired is blockRepaired as it was before fec.DecodesToZero:
// run the full SOVA decode and look at every decoded bit.
func fullDecodeRepaired(errBits []byte) bool {
	if !nonzero(errBits) {
		return true
	}
	res, err := fec.Decode(errBits)
	return err == nil && !nonzero(res.Bits)
}

// TestBlockRepairedMatchesFullDecode scores every coded block of a quick
// high-load trace both ways. The plain layout holds every block FEC and
// PPR+FEC can decode, the deinterleaved one every FEC+interleaving block.
func TestBlockRepairedMatchesFullDecode(t *testing.T) {
	o := experiments.Options{Seed: 1, Quick: true}
	tr := o.Trace(experiments.LoadHigh, false)
	p := experiments.DefaultSchemeParams()
	payload := tr.Cfg.PacketBytes
	nBlocks, _, codedBits := schemes.FECLayout(p, payload)
	if nBlocks == 0 {
		t.Fatalf("payload of %d bytes holds no FEC block", payload)
	}
	var clean, repaired, lost int
	for i := range tr.Outs {
		out := &tr.Outs[i]
		if !out.Acquired {
			continue
		}
		plain := schemes.ChannelErrorBits(out, payload)[:nBlocks*codedBits]
		inter := schemes.Deinterleaved(append([]byte(nil), plain...), p)
		for _, region := range [][]byte{plain, inter} {
			for b := 0; b < nBlocks; b++ {
				blk := region[b*codedBits : (b+1)*codedBits]
				want := fullDecodeRepaired(blk)
				if got := schemes.BlockRepaired(blk); got != want {
					t.Fatalf("outcome %d block %d: blockRepaired = %v, full decode says %v", i, b, got, want)
				}
				switch {
				case !want:
					lost++
				case nonzero(blk):
					repaired++
				default:
					clean++
				}
			}
		}
	}
	t.Logf("blocks: %d clean, %d damaged and repaired, %d lost", clean, repaired, lost)
	if repaired == 0 || lost == 0 {
		t.Fatalf("trace exercised only one answer on damaged blocks: %d repaired, %d lost", repaired, lost)
	}
}
