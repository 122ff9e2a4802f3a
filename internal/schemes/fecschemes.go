// The FEC-side recovery schemes: block convolutional coding (with and
// without interleaving) and the hint-directed hybrid. They post-process the
// same uncoded trace every other scheme scores, emulating what the channel's
// recorded error pattern would have done to a coded payload: because the
// rate-1/2 convolutional code is linear, decoding the all-zeros codeword
// through the observed error pattern reproduces exactly the residual errors
// any real data would have suffered, so no reference payload is needed.
// Delivery only asks whether those residual errors are all zero, so the
// schemes use fec.DecodesToZero, which answers that without the SOVA
// traceback and reliabilities fec.Decode computes for SoftPHY hints. The
// error pattern is packed one coded bit per chip of a bitutil.ChipWords and
// built from the damaged symbols only, so scoring cost follows the damage.
package schemes

import (
	"math/bits"

	"ppr/internal/bitutil"
	"ppr/internal/fec"
	"ppr/internal/interleave"
	"ppr/internal/sim"
)

// fecDataBytes, ilRows and ilCols resolve the Params knobs with their
// zero-value defaults.
func fecDataBytes(p Params) int {
	if p.FECDataBytes > 0 {
		return p.FECDataBytes
	}
	return DefaultFECDataBytes
}

func ilGeometry(p Params) (rows, cols int) {
	rows, cols = p.InterleaveRows, p.InterleaveCols
	if rows <= 0 {
		rows = DefaultInterleaveRows
	}
	if cols <= 0 {
		cols = DefaultInterleaveCols
	}
	return rows, cols
}

// fecLayout computes the block structure a payload supports: each block
// carries fecDataBytes(p) application bytes, independently encoded (and
// trellis-terminated) by the rate-1/2 K=7 code, and the payload holds as
// many whole coded blocks as fit. codedBits is always a multiple of 4, so
// blocks align with 4-bit PHY symbols.
func fecLayout(p Params, payloadBytes int) (nBlocks, dataBits, codedBits int) {
	dataBits = fecDataBytes(p) * 8
	codedBits = fec.EncodedLen(dataBits)
	nBlocks = payloadBytes * 8 / codedBits
	return nBlocks, dataBits, codedBits
}

// errorPattern packs the coded-bit error pattern the channel imposed on the
// first nBits coded bits of the payload, as the decoder sees it: per
// symbol, the XOR of the decoded and true 4-bit values, LSB first at coded
// bits 4·idx…4·idx+3; symbols the receiver never decoded (missing prefix,
// truncated reception) are fully corrupted. Symbols the mask certifies
// correct contribute nothing. The pattern is assembled eight symbols per
// 32-bit word and packed once.
//
// With interleaved set, the pattern then goes through the receiver's
// deinterleaver: the transmitter interleaved whole rows×cols bit tiles, so
// a contiguous channel burst lands InterleaveCols bits apart at the
// decoder, and a trailing region shorter than one tile is sent
// uninterleaved. Only set bits move, so that step's cost follows the
// damage.
func errorPattern(o *sim.Outcome, mask []bool, p Params, nBits int, interleaved bool) *bitutil.ChipWords {
	nSym := nBits / symbolBits
	const symsPerWord = 32 / symbolBits
	words := make([]uint32, (nSym+symsPerWord-1)/symsPerWord)
	for idx := 0; idx < nSym; idx++ {
		if idx < len(mask) && mask[idx] {
			continue
		}
		var e byte = 0xF
		if di := idx - o.MissingPrefix; di >= 0 && di < len(o.Decisions) && idx < len(o.TruthSyms) {
			e = (o.Decisions[di].Symbol ^ o.TruthSyms[idx]) & 0xF
		}
		// Coded bit 4·idx+j is chip 4·idx+j: bit 31−(4·idx+j)%32 of its
		// word, so the nibble goes in bit-reversed.
		words[idx/symsPerWord] |= uint32(bits.Reverse8(e)) << 24 >> uint(symbolBits*(idx%symsPerWord))
	}
	tiled := 0
	var il interleave.Block
	if interleaved {
		il = interleave.New(ilGeometry(p))
		tiled = nBits / il.Size() * il.Size()
	}
	if tiled == 0 {
		return bitutil.PackWord32s(words).Slice(0, nBits)
	}
	out := bitutil.NewChipWords(nBits)
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			q := 32*wi + 31 - bits.TrailingZeros32(w)
			if q < tiled {
				q = il.DataIndex(q)
			}
			out.SetBit(q, 1)
		}
	}
	return out
}

// maskClean reports whether the mask certifies symbols [lo, hi) correct.
func maskClean(mask []bool, lo, hi int) bool {
	if hi > len(mask) {
		return false
	}
	for _, ok := range mask[lo:hi] {
		if !ok {
			return false
		}
	}
	return true
}

// blockRepaired reports whether the code fully repairs block b of a packed
// error pattern, i.e. whether Viterbi decoding of the all-zeros codeword
// through it returns all-zero data. The block is copied into blk, a
// reusable buffer one block long. An error-free block short-circuits
// (decoding an uncorrupted codeword is the identity); a damaged one runs
// fec.DecodesToZero, which answers exactly that question — from its
// weight or impulse screen when either applies, otherwise from the
// path-metric recursion, stopping at the step where the zero path loses
// state 0 — and counts into tally.
func blockRepaired(pattern *bitutil.ChipWords, b int, blk *bitutil.ChipWords, tally *fec.ZeroCheckTally) bool {
	n := blk.Len()
	blk.CopyFrom(0, pattern, b*n, n)
	if blk.OnesCount() == 0 {
		return true
	}
	ok, err := fec.DecodesToZero(blk, tally)
	return err == nil && ok
}

// ---- Block FEC (Sec. 8.3's coding alternative) ----

// BlockFEC post-processes the trace as if the sender had convolutionally
// coded the payload: application data is split into FECDataBytes blocks,
// each encoded with internal/fec's rate-1/2 K=7 code, and a block is
// delivered iff the Viterbi decoder fully repairs it. With Interleaved set,
// the coded stream additionally passes through internal/interleave's block
// interleaver, so channel bursts up to InterleaveRows bits are spread into
// isolated, correctable single errors — when, and only when, the geometry
// was provisioned for the burst, which is the a-priori channel knowledge
// the paper notes PPR does not need (Sec. 8.3).
type BlockFEC struct {
	// Interleaved interposes the block bit-interleaver between the encoder
	// and the channel.
	Interleaved bool
}

// Name implements RecoveryScheme.
func (s BlockFEC) Name() string {
	if s.Interleaved {
		return "FEC+interleaving"
	}
	return "FEC"
}

// AppBytesPerPacket implements RecoveryScheme: the rate-1/2 code roughly
// halves capacity — the standing cost PPR avoids by not pre-provisioning
// redundancy.
func (s BlockFEC) AppBytesPerPacket(p Params, payloadBytes int) int {
	nBlocks, _, _ := fecLayout(p, payloadBytes)
	return nBlocks * fecDataBytes(p)
}

// DeliveredAppBytes implements RecoveryScheme.
func (s BlockFEC) DeliveredAppBytes(mask []bool, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	mask = maskOf(mask, o)
	nBlocks, _, codedBits := fecLayout(p, payloadBytes)
	if nBlocks == 0 {
		return 0
	}
	if maskClean(mask, 0, payloadBytes*2) {
		return nBlocks * fecDataBytes(p) // error-free packet: every block decodes
	}
	pattern := errorPattern(o, mask, p, nBlocks*codedBits, s.Interleaved)
	blk := bitutil.NewChipWords(codedBits)
	var tally fec.ZeroCheckTally
	symsPerBlock := codedBits / symbolBits
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		// Without interleaving a block's errors are its own symbols', so
		// the mask finds the clean blocks.
		if (!s.Interleaved && maskClean(mask, b*symsPerBlock, (b+1)*symsPerBlock)) || blockRepaired(pattern, b, blk, &tally) {
			delivered += fecDataBytes(p)
		}
	}
	tally.Publish()
	return delivered
}

// ---- Hybrid PPR + FEC (the ZipTx/Maranello direction) ----

// HybridPPRFEC couples SoftPHY hints to the block code: the payload is laid
// out exactly as BlockFEC lays it out, but the receiver uses PPR's η
// threshold to decide where to spend decoding effort. A block whose symbols
// all pass the hint check is handed up directly — no trellis — and a block
// containing hint-flagged (or undecoded) symbols goes through the
// convolutional repair. FEC effort therefore concentrates on exactly the
// symbols the PHY flagged, the partial-recovery middle ground ZipTx and
// Maranello explore with application- and block-level checksums.
//
// The delivery semantics differ from plain BlockFEC only on hint misses: a
// wrong-but-confident symbol makes its hint-clean block undeliverable
// (delivered-but-wrong is not delivery), whereas BlockFEC's always-on
// decoder may repair it.
type HybridPPRFEC struct{}

// Name implements RecoveryScheme.
func (HybridPPRFEC) Name() string { return "PPR+FEC" }

// AppBytesPerPacket implements RecoveryScheme: same coded layout as
// BlockFEC.
func (HybridPPRFEC) AppBytesPerPacket(p Params, payloadBytes int) int {
	return BlockFEC{}.AppBytesPerPacket(p, payloadBytes)
}

// DeliveredAppBytes implements RecoveryScheme.
func (HybridPPRFEC) DeliveredAppBytes(mask []bool, o *sim.Outcome, p Params, payloadBytes int) int {
	if !o.Acquired {
		return 0
	}
	mask = maskOf(mask, o)
	nBlocks, _, codedBits := fecLayout(p, payloadBytes)
	symsPerBlock := codedBits / symbolBits
	var pattern, blk *bitutil.ChipWords // built lazily, only if some block needs repair
	var tally fec.ZeroCheckTally
	delivered := 0
	for b := 0; b < nBlocks; b++ {
		s0 := b * symsPerBlock
		if maskClean(mask, s0, s0+symsPerBlock) {
			// Correct, so delivered whether handed up directly
			// (hint-clean) or through the repair of an error-free block.
			delivered += fecDataBytes(p)
			continue
		}
		if !hintFlagged(o, p, s0, s0+symsPerBlock) {
			// Hint-clean but wrong: handed up without repair, and
			// delivered-but-wrong is not delivery.
			continue
		}
		if pattern == nil {
			pattern = errorPattern(o, mask, p, nBlocks*codedBits, false)
			blk = bitutil.NewChipWords(codedBits)
		}
		if blockRepaired(pattern, b, blk, &tally) {
			delivered += fecDataBytes(p)
		}
	}
	tally.Publish()
	return delivered
}

// hintFlagged reports whether any of symbols [lo, hi) was undecoded or has
// a hint above η — the blocks the hybrid routes through the repair.
func hintFlagged(o *sim.Outcome, p Params, lo, hi int) bool {
	for idx := lo; idx < hi; idx++ {
		di := idx - o.MissingPrefix
		if di < 0 || di >= len(o.Decisions) || o.Decisions[di].Hint > p.Eta {
			return true
		}
	}
	return false
}
