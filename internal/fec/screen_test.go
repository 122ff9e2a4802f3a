package fec

import (
	"math/bits"
	"testing"
)

// TestZeroCheckScreenPremises derives the two facts DecodesToZero's
// screens rest on from the trellis itself: the least output weight of any
// detour (a path leaving state 0 and later returning to it) is
// freeDistance, and the impulse mask is Encode([1]), a K-branch detour of
// impulseWeight = freeDistance ones.
func TestZeroCheckScreenPremises(t *testing.T) {
	// Shortest paths by output weight from "just left state 0" to the
	// first return: Bellman-Ford over the nonzero states.
	const inf = 1 << 30
	next := func(s, b int) int { return s>>1 | b<<(K-2) }
	weight := func(s, b int) int { return bits.OnesCount8(outputs[s][b]) }
	var dist [numStates]int
	for s := range dist {
		dist[s] = inf
	}
	dist[next(0, 1)] = weight(0, 1)
	best := inf
	for round := 0; round < numStates; round++ {
		for s := 1; s < numStates; s++ {
			if dist[s] == inf {
				continue
			}
			for b := 0; b < 2; b++ {
				d := dist[s] + weight(s, b)
				if ns := next(s, b); ns == 0 {
					best = min(best, d)
				} else if d < dist[ns] {
					dist[ns] = d
				}
			}
		}
	}
	if best != freeDistance {
		t.Fatalf("least detour weight = %d, freeDistance = %d", best, freeDistance)
	}

	// The impulse: Encode([1]) leaves state 0 on its first branch, stays
	// off it, and is back after exactly K branches.
	imp := Encode([]byte{1})
	if len(imp) != Rate*K {
		t.Fatalf("Encode([1]) has %d coded bits, want %d", len(imp), Rate*K)
	}
	state, ones := 0, 0
	for t0, b := range append([]byte{1}, make([]byte, K-1)...) {
		ones += weight(state, int(b))
		state = next(state, int(b))
		if (state == 0) != (t0 == K-1) {
			t.Fatalf("impulse in state %d after branch %d", state, t0)
		}
	}
	var packed uint64
	for i, b := range imp {
		packed |= uint64(b) << uint(63-i)
	}
	if packed != impulse || ones != impulseWeight || impulseWeight != freeDistance {
		t.Fatalf("impulse %016x weight %d, want Encode([1]) = %016x of weight %d = freeDistance %d",
			impulse, impulseWeight, packed, ones, freeDistance)
	}
}
