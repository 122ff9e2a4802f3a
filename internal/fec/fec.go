// Package fec implements a convolutional code with a soft-output Viterbi
// decoder — the second PHY design the paper's SoftPHY section contemplates:
// "a particularly interesting instance of a confidence metric when
// convolutional decoding is used ... is to use the output of the Viterbi
// decoder" (Sec. 3.1, citing SOVA [11]).
//
// The code is the industry-standard rate-1/2, constraint-length-7
// convolutional code (generators 171/133 octal, the K=7 code used by
// 802.11a, DVB and deep-space links). The decoder runs the classic
// add-compare-select recursion and, in the spirit of the soft-output
// Viterbi algorithm, tracks for every decoded bit the minimum metric margin
// of the ACS decisions that could have flipped it; that margin is the
// per-bit reliability.
//
// fec exists to demonstrate the paper's architectural claim (Sec. 3.3):
// higher layers consume hints through the same monotonic interface no
// matter which PHY produced them. CodedDecoder adapts the Viterbi
// reliabilities to the phy.Decision hint convention, and the PP-ARQ stack
// runs over it unchanged (see the integration tests).
//
// DecodesToZero is the decoder's yes/no sibling: it reports whether Decode
// would return all-zero bits, which is all the FEC recovery schemes need
// when they score a block by decoding its channel error pattern. It reads
// the pattern packed, settles most blocks with an exact weight or impulse
// screen, and runs the path-metric recursion alone (no traceback, no
// reliabilities, no allocation) on the rest, usually stopping early.
package fec

import (
	"fmt"
	"math"
	"math/bits"

	"ppr/internal/bitutil"
	"ppr/internal/phy"
)

const (
	// K is the constraint length.
	K = 7
	// numStates is 2^(K-1).
	numStates = 1 << (K - 1)
	// Rate is the inverse code rate: output bits per input bit.
	Rate = 2
	// g0 and g1 are the generator polynomials (171, 133 octal).
	g0 = 0o171
	g1 = 0o133
)

// parity returns the parity of v.
func parity(v uint32) byte {
	return byte(bits.OnesCount32(v) & 1)
}

// outputs[state][inBit] packs the two coded bits produced when inBit enters
// the shift register at state.
var outputs [numStates][2]byte

func init() {
	for s := 0; s < numStates; s++ {
		for b := 0; b < 2; b++ {
			reg := uint32(b)<<(K-1) | uint32(s)
			o0 := parity(reg & g0)
			o1 := parity(reg & g1)
			outputs[s][b] = o0<<1 | o1
		}
	}
}

// Encode convolutionally encodes data bits (one bit per byte, values 0/1),
// appending K-1 zero tail bits to terminate the trellis. The output has
// 2·(len(bits)+K−1) coded bits.
func Encode(dataBits []byte) []byte {
	out := make([]byte, 0, Rate*(len(dataBits)+K-1))
	state := 0
	emit := func(b byte) {
		o := outputs[state][b&1]
		out = append(out, o>>1, o&1)
		state = (state >> 1) | int(b&1)<<(K-2)
	}
	for _, b := range dataBits {
		emit(b)
	}
	for i := 0; i < K-1; i++ {
		emit(0)
	}
	return out
}

// EncodedLen returns the coded length in bits for n data bits.
func EncodedLen(n int) int { return Rate * (n + K - 1) }

// Result is a soft-output decode: the data bits and a per-bit reliability.
type Result struct {
	// Bits are the decoded data bits (0/1), tail removed.
	Bits []byte
	// Reliability[i] is the metric margin protecting bit i: the smallest
	// path-metric difference among the trellis decisions that would have
	// flipped it. Larger means more confident. For hard-decision branch
	// metrics the unit is "channel bit flips".
	Reliability []float64
}

// branchMetrics[rx][o] is the Hamming distance between a received 2-bit
// branch symbol rx and a candidate output symbol o, precomputed so the ACS
// recursion is pure table lookups.
var branchMetrics [4][4]int32

func init() {
	for rx := 0; rx < 4; rx++ {
		for o := 0; o < 4; o++ {
			branchMetrics[rx][o] = int32(bits.OnesCount8(byte(rx^o) & 0b11))
		}
	}
}

// butterflyOut[j] is the coded output for the transition predecessor-2j →
// successor-j (input bit 0). Both generators have their input-bit and
// oldest-bit taps set (g0, g1 are odd and ≥ 2^(K-1)), so flipping either
// the input bit or the predecessor's low bit complements BOTH coded bits:
// the other three branch metrics of the butterfly {2j, 2j+1} → {j, j+32}
// are bm[o^0b11] = 2 − bm[o]. One table lookup serves all four branches.
var butterflyOut [numStates / 2]byte

// butterflyBM[rx][j] = branchMetrics[rx][butterflyOut[j]], flattening the
// two dependent lookups of the steady-state ACS into one.
var butterflyBM [4][numStates / 2]int32

func init() {
	for j := 0; j < numStates/2; j++ {
		butterflyOut[j] = outputs[2*j][0]
	}
	for rx := 0; rx < 4; rx++ {
		for j := 0; j < numStates/2; j++ {
			butterflyBM[rx][j] = branchMetrics[rx][butterflyOut[j]]
		}
	}
}

// branchCount returns the number of Rate-bit branches in n coded bits,
// or an error when the stream is not whole branches or is shorter than the
// encoder's zero tail.
func branchCount(n int) (int, error) {
	if n%Rate != 0 {
		return 0, fmt.Errorf("fec: coded length %d not a multiple of %d", n, Rate)
	}
	nBranches := n / Rate
	if nBranches < K-1 {
		return 0, fmt.Errorf("fec: %d branches shorter than the %d-bit tail", nBranches, K-1)
	}
	return nBranches, nil
}

// Decode runs hard-decision Viterbi over coded bits (0/1 per byte) with
// SOVA-style reliability tracking. The coded stream must be a whole number
// of Rate-bit branches; decoding assumes the encoder's zero tail.
//
// The trellis state is flat: survivor decisions bit-pack into one uint64
// per step (64 states, one bit each), ACS margins live in a single backing
// array sized once, and the recursion walks successor states directly —
// each of the 64 next-states has exactly two predecessors, so one compare
// per state replaces the seed's per-transition bookkeeping. The
// reliability window is a monotonic-deque sliding minimum, O(n) instead of
// O(n·5K). Outputs are bit-identical to the frozen reference
// (internal/fec/sovaref); the parity tests pin that.
func Decode(coded []byte) (Result, error) {
	nBranches, err := branchCount(len(coded))
	if err != nil {
		return Result{}, err
	}
	mSOVAInvocations.Get().Inc()
	mSOVABits.Get().Add(int64(nBranches - (K - 1)))
	const inf = math.MaxInt32 / 2

	var ma, mb [numStates]int32
	metric, next := &ma, &mb
	for s := 1; s < numStates; s++ {
		metric[s] = inf // trellis starts in state 0
	}
	// survivors[t] bit s records the predecessor decision bit for state s
	// at step t; deltas[t*numStates+s] the ACS margin at that decision.
	survivors := make([]uint64, nBranches)
	deltas := make([]int32, nBranches*numStates)

	// Warm-up steps: until the trellis fans out from state 0 to all 64
	// states (K−1 steps), unreachable predecessors need the full
	// reachability switch of the reference recursion.
	warm := K - 1
	if warm > nBranches {
		warm = nBranches
	}
	for t := 0; t < warm; t++ {
		rx := coded[t*Rate]<<1 | coded[t*Rate+1]
		bm := &branchMetrics[rx&0b11]
		dl := deltas[t*numStates : (t+1)*numStates : (t+1)*numStates]
		var sur uint64
		for ns := 0; ns < numStates; ns++ {
			// ns's two predecessors differ only in their oldest register
			// bit: p0 (low bit 0, processed first in the seed's state
			// order) and p1. The branch input bit is ns's top bit.
			b := ns >> (K - 2)
			p0 := (ns << 1) & (numStates - 1)
			p1 := p0 | 1
			m0, m1 := metric[p0], metric[p1]
			reach0, reach1 := m0 < inf, m1 < inf
			m0 += bm[outputs[p0][b]]
			m1 += bm[outputs[p1][b]]
			switch {
			case reach0 && reach1:
				if m1 < m0 {
					next[ns] = m1
					dl[ns] = m0 - m1
					sur |= 1 << uint(ns)
				} else {
					next[ns] = m0
					dl[ns] = m1 - m0
				}
			case reach0:
				next[ns] = m0
				dl[ns] = inf - m0
			case reach1:
				next[ns] = m1
				dl[ns] = inf - m1
				sur |= 1 << uint(ns)
			default:
				next[ns] = inf
			}
		}
		survivors[t] = sur
		metric, next = next, metric
	}

	// Steady state: every state is reachable, so the ACS collapses to pure
	// butterflies. Successors j and j+32 share predecessors {2j, 2j+1}, and
	// their four branch metrics are a and 2−a for a single table value a
	// (see butterflyOut) — one lookup, two metric loads, two compares per
	// butterfly.
	for t := warm; t < nBranches; t++ {
		rx := coded[t*Rate]<<1 | coded[t*Rate+1]
		bm := &butterflyBM[rx&0b11]
		dl := (*[numStates]int32)(deltas[t*numStates:])
		var sur uint64
		for j := 0; j < numStates/2; j++ {
			m0, m1 := metric[2*j], metric[2*j+1]
			a := bm[j]
			c := 2 - a
			// Branchless compare-select: on noisy input the ACS winner is
			// essentially random, so data-dependent branches mispredict half
			// the time; sign-mask arithmetic keeps the pipeline full. With
			// d = loser − winner candidate, mask = d>>31 is −1 when the
			// p1 path wins; then min = t0+(d&mask), |d| = (d^mask)−mask,
			// and the survivor bit is mask&1. Ties (d == 0) select the p0
			// path with delta 0, exactly the reference semantics.
			t0, t1 := m0+a, m1+c
			d := t1 - t0
			mask := d >> 31
			next[j] = t0 + d&mask
			dl[j] = (d ^ mask) - mask
			sur |= uint64(mask&1) << uint(j)
			t2, t3 := m0+c, m1+a
			d = t3 - t2
			mask = d >> 31
			next[j+numStates/2] = t2 + d&mask
			dl[j+numStates/2] = (d ^ mask) - mask
			sur |= uint64(mask&1) << uint(j+numStates/2)
		}
		survivors[t] = sur
		metric, next = next, metric
	}

	// Traceback from state 0 (zero tail terminates there).
	state := 0
	decided := make([]byte, nBranches)
	margins := make([]int32, nBranches)
	for t := nBranches - 1; t >= 0; t-- {
		// The input bit at step t is the top bit of the state at t+1.
		decided[t] = byte(state >> (K - 2) & 1)
		margins[t] = deltas[t*numStates+state]
		prevLow := int(survivors[t] >> uint(state) & 1)
		state = (state<<1 | prevLow) & (numStates - 1)
	}

	nData := nBranches - (K - 1)
	res := Result{
		Bits:        decided[:nData],
		Reliability: make([]float64, nData),
	}
	// SOVA-lite reliability: a decision at step t is protected by the ACS
	// margins along the surviving path in a window after t (a competing
	// path that would flip bit t must diverge at t and re-merge within
	// roughly 5K branches). Take the minimum margin over that window,
	// computed right to left with a monotonic deque: indices in the deque
	// carry strictly increasing margins front to back, the front is the
	// window minimum, and each index enters and leaves at most once, so
	// the whole post-processing pass is O(n).
	const window = 5 * K
	deque := make([]int32, 0, window) // margin values; indices tracked below
	idx := make([]int, 0, window)
	head := 0
	for i := nBranches - 1; i >= 0; i-- {
		for len(deque) > head && deque[len(deque)-1] >= margins[i] {
			deque = deque[:len(deque)-1]
			idx = idx[:len(idx)-1]
		}
		deque = append(deque, margins[i])
		idx = append(idx, i)
		if idx[head] >= i+window {
			head++
		}
		if i < nData {
			res.Reliability[i] = float64(deque[head])
		}
	}
	return res, nil
}

// freeDistance is the code's free distance d_free: the least output weight
// of any detour, a path that leaves state 0 and later returns to it.
// TestZeroCheckScreenPremises derives it from the trellis.
const freeDistance = 10

// impulse is the impulse detour Encode([1]) — input 1 then K−1 zeros, K
// branches that leave state 0 and return to it — packed like a ChipWords
// word, first coded bit at bit 63. impulseWeight is its output weight.
var (
	impulse       uint64
	impulseWeight int
)

func init() {
	for i, b := range Encode([]byte{1}) {
		impulse |= uint64(b) << uint(63-i)
	}
	impulseWeight = bits.OnesCount64(impulse)
}

// ZeroCheckTally counts DecodesToZero calls in the caller's own memory:
// every call, the calls a screen answered, and the trellis steps the rest
// ran. A caller scoring many blocks publishes the batch with Publish, one
// counter Add each, so enabling metrics costs nothing per check.
type ZeroCheckTally struct {
	Checks, Screened, Steps int64
}

// Publish adds the tally to fec.zero_checks, fec.zero_check_screened and
// fec.zero_check_steps.
func (t *ZeroCheckTally) Publish() {
	if t.Checks == 0 {
		return
	}
	mZeroChecks.Get().Add(t.Checks)
	mZeroCheckScreened.Get().Add(t.Screened)
	mZeroCheckSteps.Get().Add(t.Steps)
}

// DecodesToZero reports whether Decode would return all-zero Bits for the
// coded stream, packed one coded bit per chip, with Decode's errors. It
// never runs the traceback: two O(1)-per-error screens settle most
// streams, and the rest run only the path-metric recursion (same warm-up
// switch, tables and tie rule as Decode) with no survivors, margins or
// heap memory. tally records the call.
//
// The answer is exact. Viterbi keeps one survivor per state, and the
// all-zero path sits in state 0 at every step, so once state 0's
// add-compare-select picks predecessor 1 the zero path is gone for good.
// If that never happens, the traceback from state 0 walks the zero path
// and every bit is 0. If it happens, the decoded path is not the zero
// path yet still ends in state 0, so its last K−1 inputs are 0 and one of
// its data bits is 1. The trellis therefore returns false at the first
// step where state 0 switches to predecessor 1.
//
// The screens decide the same question from the error pattern alone:
//   - Weight: a path that displaces the zero path at state 0 is a chain of
//     detours, each of output weight |o| ≥ freeDistance, and against r
//     received ones it costs Σ(|o| − 2|r∧o|) ≥ freeDistance − 2|r| more
//     than the zero path. With 2|r| ≤ freeDistance that is never
//     negative, and state 0 picks predecessor 1 only when it is strictly
//     better (ties keep predecessor 0): true.
//   - Impulse: if a whole K-branch window [u, u+K) holds more than half of
//     the impulse detour's ones, the impulse path leaving state 0 at u
//     beats the zero path at step u+K. State 0's metric is the exact
//     minimum over paths into it, so the zero path has been displaced by
//     then, and displacement is permanent: false.
func DecodesToZero(coded *bitutil.ChipWords, tally *ZeroCheckTally) (bool, error) {
	nBranches, err := branchCount(coded.Len())
	if err != nil {
		return false, err
	}
	tally.Checks++
	words := coded.Words()
	if ok, settled := screen(coded, nBranches); settled {
		tally.Screened++
		return ok, nil
	}
	const inf = math.MaxInt32 / 2

	var ma, mb [numStates]int32
	metric, next := &ma, &mb
	for s := 1; s < numStates; s++ {
		metric[s] = inf
	}

	// Warm-up: the selections of Decode's reachability switch, metrics
	// only. State 0's predecessor 1 (oldest register bit set) is
	// unreachable before step K−1, so state 0 keeps the zero path here.
	// Branch t's two coded bits sit at bits 63−2(t%32) and 62−2(t%32) of
	// word t/32, so one shift yields Decode's rx symbol.
	warm := K - 1
	if warm > nBranches {
		warm = nBranches
	}
	for t := 0; t < warm; t++ {
		rx := words[t>>5] >> (62 - 2*uint(t&31))
		bm := &branchMetrics[rx&0b11]
		for ns := 0; ns < numStates; ns++ {
			b := ns >> (K - 2)
			p0 := (ns << 1) & (numStates - 1)
			p1 := p0 | 1
			m0, m1 := metric[p0], metric[p1]
			reach0, reach1 := m0 < inf, m1 < inf
			m0 += bm[outputs[p0][b]]
			m1 += bm[outputs[p1][b]]
			switch {
			case reach0 && (!reach1 || m1 >= m0):
				next[ns] = m0
			case reach1:
				next[ns] = m1
			default:
				next[ns] = inf
			}
		}
		metric, next = next, metric
	}

	// Steady state: Decode's butterflies without deltas or survivor bits.
	// State 0 is successor j = 0 of butterfly 0; it picks predecessor 1
	// exactly when Decode's survivor bit 0 would be set (d < 0, ties to
	// predecessor 0).
	for t := warm; t < nBranches; t++ {
		rx := words[t>>5] >> (62 - 2*uint(t&31))
		bm := &butterflyBM[rx&0b11]
		if a := bm[0]; metric[1]+2-a < metric[0]+a {
			tally.Steps += int64(t + 1)
			return false, nil
		}
		for j := 0; j < numStates/2; j++ {
			m0, m1 := metric[2*j], metric[2*j+1]
			a := bm[j]
			c := 2 - a
			t0, t1 := m0+a, m1+c
			d := t1 - t0
			next[j] = t0 + d&(d>>31)
			t2, t3 := m0+c, m1+a
			d = t3 - t2
			next[j+numStates/2] = t2 + d&(d>>31)
		}
		metric, next = next, metric
	}
	tally.Steps += int64(nBranches)
	return true, nil
}

// screen applies DecodesToZero's weight and impulse screens to the packed
// coded bits (nBranches branches), returning settled = false when neither
// decides. It visits only the set bits, and a K-branch window only when a
// set bit lies in it: a window without ones cannot hold impulse ones. A
// stray bit past Len() can only add checks of windows that lie inside the
// stream, so the last word needs no mask.
func screen(coded *bitutil.ChipWords, nBranches int) (ok, settled bool) {
	if 2*coded.OnesCount() <= freeDistance {
		return true, true
	}
	words := coded.Words()
	lastU := nBranches - K // last window start that fits the trellis
	nextU := 0             // first window start not yet checked
	for wi := 0; wi*64 < coded.Len() && nextU <= lastU; wi++ {
		for w := words[wi]; w != 0; {
			lz := bits.LeadingZeros64(w)
			w &^= 1 << uint(63-lz)
			// Bit p lies in the windows [2u, 2u+2K) with p/2−K < u ≤ p/2.
			p := wi*64 + lz
			u, hi := max(p/2-(K-1), nextU), min(p/2, lastU)
			for ; u <= hi; u++ {
				if 2*bits.OnesCount64(window64(words, 2*u)&impulse) > impulseWeight {
					return false, true
				}
			}
			nextU = max(nextU, hi+1)
		}
	}
	return false, false
}

// window64 reads the packed bits from bit off on, first bit at bit 63; the
// caller masks it to a window that lies wholly inside the stream.
func window64(words []uint64, off int) uint64 {
	wi, sh := off>>6, uint(off&63)
	v := words[wi] << sh
	if sh > 0 && wi+1 < len(words) {
		v |= words[wi+1] >> (64 - sh)
	}
	return v
}

// BitsFromBytes explodes bytes into bits, LSB first per byte (matching the
// symbol ordering of the rest of the stack). The output is allocated at its
// final length and written by index — one allocation, no append churn.
func BitsFromBytes(data []byte) []byte {
	out := make([]byte, len(data)*8)
	for i, b := range data {
		for j := 0; j < 8; j++ {
			out[i*8+j] = b >> uint(j) & 1
		}
	}
	return out
}

// BytesFromBits packs bits (LSB first) into bytes; the bit count must be a
// multiple of 8.
func BytesFromBits(bitsIn []byte) []byte {
	if len(bitsIn)%8 != 0 {
		panic(fmt.Sprintf("fec: %d bits not a whole byte count", len(bitsIn)))
	}
	out := make([]byte, len(bitsIn)/8)
	for i, b := range bitsIn {
		if b&1 != 0 {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

// CodedDecision despreads one 4-bit symbol worth of decoded bits into the
// SoftPHY decision convention: symbol value from 4 consecutive bits, hint
// from the *least* reliable of them, inverted so that lower = more
// confident (the monotonicity contract). maxReliability anchors the scale.
const maxReliability = 16.0

// DecisionsFromResult converts a decode result into per-4-bit-symbol
// phy.Decisions, the same stream shape the DSSS PHY produces, so every
// higher layer (labelers, run-length, chunk DP, PP-ARQ) runs unchanged on
// the coded PHY.
func DecisionsFromResult(res Result) []phy.Decision {
	n := len(res.Bits) / 4
	out := make([]phy.Decision, n)
	for i := 0; i < n; i++ {
		sym := res.Bits[i*4]&1 |
			res.Bits[i*4+1]&1<<1 |
			res.Bits[i*4+2]&1<<2 |
			res.Bits[i*4+3]&1<<3
		minRel := res.Reliability[i*4]
		for j := 1; j < 4; j++ {
			if r := res.Reliability[i*4+j]; r < minRel {
				minRel = r
			}
		}
		hint := maxReliability - minRel
		if hint < 0 {
			hint = 0
		}
		out[i] = phy.Decision{Symbol: sym, Hint: hint}
	}
	return out
}
