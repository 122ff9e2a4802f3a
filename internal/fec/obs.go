package fec

import "ppr/internal/obs"

// Package-level metric handles. Decode and DecodesToZero are free
// functions with no construction moment, so the sites go through obs Vars:
// two atomic loads and a pointer compare per call, re-resolving only when
// the default registry changes — negligible against a trellis pass.
var (
	// mSOVAInvocations counts Decode calls — every full SOVA trellis pass
	// (the SoftPHY hint path behind DecisionsFromResult).
	mSOVAInvocations = &obs.CounterVar{Name: "fec.sova_invocations"}
	// mSOVABits counts decoded information bits across those passes.
	mSOVABits = &obs.CounterVar{Name: "fec.sova_bits"}
	// mZeroChecks counts DecodesToZero calls — the FEC recovery schemes'
	// per-block repair check.
	mZeroChecks = &obs.CounterVar{Name: "fec.zero_checks"}
	// mZeroCheckSteps counts trellis steps those checks ran before
	// answering; divided by fec.zero_checks it is the mean early-exit depth.
	mZeroCheckSteps = &obs.CounterVar{Name: "fec.zero_check_steps"}
)
