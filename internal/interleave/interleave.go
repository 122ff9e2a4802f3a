// Package interleave implements a block (row/column) interleaver, the
// technique the paper's related work discusses as complementary to partial
// packet recovery (Sec. 8.3): "techniques such as coding with interleaving
// spread the bursts of errors associated with collisions and deep fades
// across many codewords so that they can be corrected ... but not easy to
// implement, because it is necessary to know the channel conditions a
// priori in order to provision the amount of coding required".
//
// It is used by the ablation tests to quantify that trade-off against the
// convolutional code of internal/fec: interleaving converts a burst the
// code cannot correct into scattered errors it can — when (and only when)
// the interleaver depth was provisioned for the burst length, which is
// exactly the a-priori knowledge the paper says PPR avoids needing.
package interleave

import "fmt"

// Block is a rows×cols block interleaver over byte symbols: data is
// written row-major and read column-major, so a burst of length L in the
// channel is spread into single errors at least rows positions apart
// (when L ≤ rows).
type Block struct {
	rows, cols int
}

// New returns a rows×cols block interleaver. Both dimensions must be
// positive.
func New(rows, cols int) Block {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("interleave: invalid geometry %dx%d", rows, cols))
	}
	return Block{rows: rows, cols: cols}
}

// Size returns the block size rows·cols; Interleave and Deinterleave
// operate on exact multiples of it.
func (b Block) Size() int { return b.rows * b.cols }

// Interleave permutes data block by block. len(data) must be a multiple of
// Size().
func (b Block) Interleave(data []byte) []byte {
	b.checkLen(len(data))
	out := make([]byte, len(data))
	for p := range out {
		out[p] = data[b.DataIndex(p)]
	}
	return out
}

// Deinterleave inverts Interleave.
func (b Block) Deinterleave(data []byte) []byte {
	b.checkLen(len(data))
	out := make([]byte, len(data))
	for p, v := range data {
		out[b.DataIndex(p)] = v
	}
	return out
}

// DataIndex is the interleaver's index map: the symbol sent at channel
// position p is the one at position DataIndex(p) of the data, within the
// same block. Inside a block the channel reads column-major what the data
// wrote row-major. Deinterleaving a sparse pattern needs only this map for
// its set positions, so its cost follows the pattern's weight.
func (b Block) DataIndex(p int) int {
	q := p % b.Size()
	return p - q + q%b.rows*b.cols + q/b.rows
}

func (b Block) checkLen(n int) {
	if n%b.Size() != 0 {
		panic(fmt.Sprintf("interleave: length %d not a multiple of block size %d", n, b.Size()))
	}
}

// Pad returns data extended with zeros to the next multiple of Size(),
// and the original length for truncation after deinterleaving.
func (b Block) Pad(data []byte) (padded []byte, origLen int) {
	origLen = len(data)
	rem := len(data) % b.Size()
	if rem == 0 {
		return data, origLen
	}
	padded = make([]byte, len(data)+b.Size()-rem)
	copy(padded, data)
	return padded, origLen
}

// MaxSpreadBurst returns the longest channel burst (in symbols) that the
// interleaver spreads into isolated single errors: its row count.
func (b Block) MaxSpreadBurst() int { return b.rows }
