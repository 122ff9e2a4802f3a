package frame

import (
	"math/bits"

	"ppr/internal/bitutil"
	"ppr/internal/chipseq"
	"ppr/internal/phy"
)

// ChipBuffer is the receiver's view of a packed chip stream. It is exactly
// bitutil.ChipWords — the representation the channel synthesizer produces —
// so reception consumes the on-air stream directly: the sliding sync
// correlation runs as a handful of XOR+popcount operations per candidate
// offset, and no byte-per-chip repack happens anywhere on the receive path.
type ChipBuffer = bitutil.ChipWords

// NewChipBuffer packs a byte-per-chip stream (any nonzero byte is chip
// value 1) — the adapter for callers at the sample-level modem boundary,
// where chips arrive as demodulated bytes.
func NewChipBuffer(chips []byte) *ChipBuffer {
	return bitutil.PackChipBytes(chips)
}

// SyncKind distinguishes which end of a packet a synchronizer locked onto.
type SyncKind uint8

const (
	// SyncPreamble marks a preamble+SFD detection (status-quo acquisition).
	SyncPreamble SyncKind = iota
	// SyncPostamble marks a postamble detection, which triggers the
	// roll-back decode path of Sec. 4.
	SyncPostamble
)

// String implements fmt.Stringer.
func (k SyncKind) String() string {
	if k == SyncPreamble {
		return "preamble"
	}
	return "postamble"
}

// Sync is one detected sync pattern.
type Sync struct {
	// Kind says whether the pattern was a preamble or postamble.
	Kind SyncKind
	// ChipOffset is the chip index where the sync pattern starts.
	ChipOffset int
	// Dist is the total chip Hamming distance between the received window
	// and the ideal pattern; lower is a stronger lock.
	Dist int
}

// DefaultSyncMaxDist is the default chip-error tolerance for declaring a
// sync lock. A clean pattern scores ~0 of 320 chips and uncorrelated noise
// ~160, but the binding constraint is self-similarity: a run of zero data
// bytes reproduces the sync pad exactly and differs from the full pattern
// only on the two delimiter codewords (d(c0,c7)+d(c0,c10) = 30 chips for
// the preamble). A threshold of 20 rejects such runs while tolerating chip
// error rates up to ~5% on a genuine pattern.
const DefaultSyncMaxDist = 20

// The sync scan works 64 chips — one machine word — at a time. Both sync
// patterns are 5 bytes = 320 chips = exactly five 64-chip blocks, and they
// share their first four blocks (the zero-byte pad, codeword 0 repeated);
// only the fifth block, the delimiter byte, differs between preamble and
// postamble. A candidate offset is accepted when its pad distance plus the
// closer of the two delimiter distances is within the threshold.
//
// Stripe sampling. The pad blocks of offset off start at off, off+64,
// off+128 and off+192, so exactly one of them starts in a stripe
// [256j, 256j+64): the four starts fall in the four distinct residues of
// ⌊x/64⌋ mod 4. A block distance within the threshold is necessary for the
// whole pad to be, so the scan computes the 64-chip pad distance only at
// stripe positions — a quarter of the offsets — and turns each stripe into
// a 64-bit candidate mask. A set bit s stands for the four offsets
// x0+s−64k, k = 0..3; each gets the full pad and delimiter check. The mask
// is a prefilter, not a classifier: 802.15.4 codewords are 4-chip
// rotations of codeword 0, so payload runs resemble the pad and about 2%
// of the offsets of a real collision window pass it.
const (
	syncBlocks = SyncChips / 64
	padBlocks  = syncBlocks - 1
	// stripeChips is the distance between stripes: one per pad block.
	stripeChips = padBlocks * 64
)

// delimWord packs a sync pattern's delimiter byte (two codewords) into the
// 64-chip block the scan compares against.
func delimWord(delim byte) uint64 {
	cws := phy.SpreadSymbols(symbolsOfBytes([]byte{delim}))
	return uint64(cws[0])<<32 | uint64(cws[1])
}

var (
	// padWord is one 64-chip block of the shared sync pad: the zero byte's
	// two codeword-0 repetitions. All four pad blocks are identical.
	padWord = uint64(chipseq.Codeword(0))<<32 | uint64(chipseq.Codeword(0))
	// preDelimWord and postDelimWord are the fifth, distinguishing blocks.
	preDelimWord  = delimWord(SFD)
	postDelimWord = delimWord(PSFD)
)

// FindSyncs scans the buffer for preamble and postamble patterns, returning
// detections ordered by chip offset. Candidate detections closer than one
// codeword apart are collapsed to the strongest, which handles the cluster
// of near-hits around the true alignment.
func FindSyncs(buf *ChipBuffer, maxDist int) []Sync {
	return AppendSyncs(nil, buf, maxDist)
}

// AppendSyncs is FindSyncs appending into dst, the allocation-free form for
// callers that scan repeatedly (the receiver reuses one detection buffer
// across Receive calls).
func AppendSyncs(dst []Sync, buf *ChipBuffer, maxDist int) []Sync {
	if maxDist <= 0 {
		maxDist = DefaultSyncMaxDist
	}
	limit := buf.Len() - SyncChips
	if limit < 0 {
		return dst
	}
	base := len(dst)
	words := buf.Words()
	// A local copy lets the kernel keep the pad in a register instead of
	// reloading the package variable at every offset.
	pad := padWord
	// A block distance never exceeds 64, so clamping the stripe threshold
	// there changes no mask bit and keeps the kernel's arithmetic in range.
	blockMax := min(maxDist, 64)
	// Every offset in [0, limit] has its stripe block at most 192 chips
	// past it, so stripes run while x0 <= limit+192.
	for x0 := 0; x0 <= limit+stripeChips-64; x0 += stripeChips {
		// x0 <= Len-128, so both words of the stripe window exist.
		wi := x0 / 64
		m := stripeMask(words[wi], words[wi+1], pad, blockMax)
		if m == 0 {
			continue
		}
		// Visit the candidates in ascending offset order: k = 3..0 covers
		// [x0-192, x0+64) one 64-offset run at a time.
		for k := padBlocks - 1; k >= 0; k-- {
			for mm := m; mm != 0; mm &= mm - 1 {
				off := x0 - 64*k + bits.TrailingZeros64(mm)
				if off < 0 {
					continue
				}
				if off > limit {
					break
				}
				kind, dist, ok := syncAt(buf, off, pad, maxDist)
				if !ok {
					continue
				}
				// Collapse candidates within one codeword of the previous
				// detection.
				if n := len(dst); n > base && off-dst[n-1].ChipOffset < chipseq.ChipsPerSymbol {
					if dist < dst[n-1].Dist {
						dst[n-1] = Sync{Kind: kind, ChipOffset: off, Dist: dist}
					}
					continue
				}
				dst = append(dst, Sync{Kind: kind, ChipOffset: off, Dist: dist})
			}
		}
	}
	return dst
}

// stripeMask is the scan's kernel: bit s of the result is set when the 64
// chips starting s chips into hi:lo are within maxDist (<= 64) of pad. The
// window slides by constant one-chip shifts, and each bit enters the mask
// as the sign of d-maxDist-1, so the loop has no branch and no variable
// shift; it is unrolled four times.
func stripeMask(hi, lo, pad uint64, maxDist int) uint64 {
	lim := maxDist + 1
	var m uint64
	for i := 0; i < 16; i++ {
		m = m>>1 | uint64(bits.OnesCount64(hi^pad)-lim)&(1<<63)
		hi, lo = hi<<1|lo>>63, lo<<1
		m = m>>1 | uint64(bits.OnesCount64(hi^pad)-lim)&(1<<63)
		hi, lo = hi<<1|lo>>63, lo<<1
		m = m>>1 | uint64(bits.OnesCount64(hi^pad)-lim)&(1<<63)
		hi, lo = hi<<1|lo>>63, lo<<1
		m = m>>1 | uint64(bits.OnesCount64(hi^pad)-lim)&(1<<63)
		hi, lo = hi<<1|lo>>63, lo<<1
	}
	return m
}

// syncAt is the full check of one candidate offset: the four pad blocks,
// bailing out once the pad distance alone exceeds the threshold, then the
// delimiter block, where the two patterns diverge (ties go to the
// preamble).
func syncAt(buf *ChipBuffer, off int, pad uint64, maxDist int) (SyncKind, int, bool) {
	d := 0
	for b := 0; b < padBlocks; b++ {
		d += bits.OnesCount64(buf.Word64(off+64*b) ^ pad)
		if d > maxDist {
			return 0, 0, false
		}
	}
	last := buf.Word64(off + padBlocks*64)
	dPre := d + bits.OnesCount64(last^preDelimWord)
	dPost := d + bits.OnesCount64(last^postDelimWord)
	if dPost < dPre {
		return SyncPostamble, dPost, dPost <= maxDist
	}
	return SyncPreamble, dPre, dPre <= maxDist
}
