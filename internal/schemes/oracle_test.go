package schemes

import (
	"ppr/internal/interleave"
	"ppr/internal/sim"
)

// The FEC schemes' frozen byte-per-bit error pattern, kept as the test
// oracle for the packed errorPattern: one byte per coded bit, built over
// every symbol of the payload and deinterleaved with the byte-level
// interleave.Block.Deinterleave.

// channelErrorBits reconstructs the coded-bit error pattern the channel
// imposed on the payload: per symbol, the XOR of the decoded and true
// 4-bit values expanded LSB-first; symbols the receiver never decoded
// (missing prefix, truncated reception) are fully corrupted.
func channelErrorBits(o *sim.Outcome, payloadBytes int) []byte {
	nSym := payloadBytes * 2
	bits := make([]byte, nSym*symbolBits)
	for idx := 0; idx < nSym; idx++ {
		var e byte = 0xF
		if di := idx - o.MissingPrefix; di >= 0 && di < len(o.Decisions) && idx < len(o.TruthSyms) {
			e = (o.Decisions[di].Symbol ^ o.TruthSyms[idx]) & 0xF
		}
		for j := 0; j < symbolBits; j++ {
			bits[idx*symbolBits+j] = e >> uint(j) & 1
		}
	}
	return bits
}

// deinterleaved applies the receiver's deinterleaver to the coded region's
// error pattern: whole rows×cols tiles are deinterleaved, and a trailing
// region shorter than one tile is returned as sent.
func deinterleaved(region []byte, p Params) []byte {
	rows, cols := ilGeometry(p)
	il := interleave.New(rows, cols)
	m := len(region) / il.Size() * il.Size()
	if m == 0 {
		return region
	}
	out := il.Deinterleave(region[:m])
	return append(out, region[m:]...)
}
