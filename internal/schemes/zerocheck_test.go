package schemes_test

import (
	"bytes"
	"testing"

	"ppr/internal/bitutil"
	"ppr/internal/experiments"
	"ppr/internal/fec"
	"ppr/internal/schemes"
	"ppr/internal/sim"
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
// run the full SOVA decode on the byte-per-bit block and look at every
// decoded bit.
func fullDecodeRepaired(errBits []byte) bool {
	if !nonzero(errBits) {
		return true
	}
	res, err := fec.Decode(errBits)
	return err == nil && !nonzero(res.Bits)
}

// oracleDelivered scores one outcome the way the FEC schemes did before
// packed error patterns: the byte-per-bit oracle pattern, every block
// through fullDecodeRepaired, and the hybrid's hint gate.
func oracleDelivered(s schemes.RecoveryScheme, o *sim.Outcome, p schemes.Params, payload int) int {
	if !o.Acquired {
		return 0
	}
	nBlocks, dataBits, codedBits := schemes.FECLayout(p, payload)
	region := schemes.ChannelErrorBits(o, payload)[:nBlocks*codedBits]
	if s == (schemes.BlockFEC{Interleaved: true}) {
		region = schemes.Deinterleaved(region, p)
	}
	_, hybrid := s.(schemes.HybridPPRFEC)
	mask := o.CorrectMask()
	symsPerBlock := codedBits / 4
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		if hybrid {
			flagged, ok := false, true
			for idx := b * symsPerBlock; idx < (b+1)*symsPerBlock; idx++ {
				if di := idx - o.MissingPrefix; di < 0 || di >= len(o.Decisions) || o.Decisions[di].Hint > p.Eta {
					flagged = true
				}
				if idx >= len(mask) || !mask[idx] {
					ok = false
				}
			}
			if !flagged {
				// Hint-clean: handed up as is, delivered iff correct.
				if ok {
					delivered += dataBits / 8
				}
				continue
			}
		}
		if fullDecodeRepaired(region[b*codedBits : (b+1)*codedBits]) {
			delivered += dataBits / 8
		}
	}
	return delivered
}

// TestBlockRepairedMatchesFullDecode scores every coded block of a quick
// high-load trace both ways. The plain layout holds every block FEC and
// PPR+FEC can decode, the deinterleaved one every FEC+interleaving block;
// the packed patterns must equal the byte-per-bit oracle's bits, every
// block's answer must match the full decode, and each FEC scheme must
// deliver what the oracle scoring delivers.
func TestBlockRepairedMatchesFullDecode(t *testing.T) {
	o := experiments.Options{Seed: 1, Quick: true}
	tr := o.Trace(experiments.LoadHigh, false)
	p := experiments.DefaultSchemeParams()
	payload := tr.Cfg.PacketBytes
	nBlocks, _, codedBits := schemes.FECLayout(p, payload)
	if nBlocks == 0 {
		t.Fatalf("payload of %d bytes holds no FEC block", payload)
	}
	fecSchemes := []schemes.RecoveryScheme{schemes.BlockFEC{}, schemes.BlockFEC{Interleaved: true}, schemes.HybridPPRFEC{}}
	var tally fec.ZeroCheckTally
	var clean, repaired, lost int
	for i := range tr.Outs {
		out := &tr.Outs[i]
		if !out.Acquired {
			continue
		}
		mask := out.CorrectMask()
		plain := schemes.ChannelErrorBits(out, payload)[:nBlocks*codedBits]
		inter := schemes.Deinterleaved(plain, p)
		for k, region := range [][]byte{plain, inter} {
			packed := schemes.ErrorPattern(out, mask, p, nBlocks*codedBits, k == 1)
			if !bytes.Equal(packed.Bytes(), region) {
				t.Fatalf("outcome %d (interleaved %v): packed error pattern differs from the oracle's bits", i, k == 1)
			}
			for b := 0; b < nBlocks; b++ {
				blk := region[b*codedBits : (b+1)*codedBits]
				want := fullDecodeRepaired(blk)
				if got := schemes.BlockRepaired(packed, b, bitutil.NewChipWords(codedBits), &tally); got != want {
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
		for _, s := range fecSchemes {
			if got, want := s.DeliveredAppBytes(mask, out, p, payload), oracleDelivered(s, out, p, payload); got != want {
				t.Fatalf("outcome %d %s: delivered %d, oracle scoring says %d", i, s.Name(), got, want)
			}
		}
	}
	t.Logf("blocks: %d clean, %d damaged and repaired, %d lost; %d zero checks, %d screened",
		clean, repaired, lost, tally.Checks, tally.Screened)
	if repaired == 0 || lost == 0 {
		t.Fatalf("trace exercised only one answer on damaged blocks: %d repaired, %d lost", repaired, lost)
	}
	if tally.Checks != int64(repaired+lost) || tally.Screened == 0 || tally.Screened == tally.Checks {
		t.Fatalf("tally %+v: want one check per damaged block (%d) and both screened and trellis answers",
			tally, repaired+lost)
	}
}
