package fec

import "ppr/internal/obs"

// Package-level metric handles. Decode is a free function with no
// construction moment, so it goes through obs Vars: two atomic loads and a
// pointer compare per call, re-resolving only when the default registry
// changes — negligible against a trellis pass. DecodesToZero is too cheap
// for that on a screened block, so its counts reach the same Vars in
// batches through ZeroCheckTally.Publish.
var (
	// mSOVAInvocations counts Decode calls — every full SOVA trellis pass
	// (the SoftPHY hint path behind DecisionsFromResult).
	mSOVAInvocations = &obs.CounterVar{Name: "fec.sova_invocations"}
	// mSOVABits counts decoded information bits across those passes.
	mSOVABits = &obs.CounterVar{Name: "fec.sova_bits"}
	// mZeroChecks counts DecodesToZero calls — the FEC recovery schemes'
	// per-block repair check on damaged blocks.
	mZeroChecks = &obs.CounterVar{Name: "fec.zero_checks"}
	// mZeroCheckScreened counts the checks the weight or impulse screen
	// answered without the trellis.
	mZeroCheckScreened = &obs.CounterVar{Name: "fec.zero_check_screened"}
	// mZeroCheckSteps counts trellis steps the unscreened checks ran before
	// answering; divided by fec.zero_checks − fec.zero_check_screened it is
	// the mean early-exit depth.
	mZeroCheckSteps = &obs.CounterVar{Name: "fec.zero_check_steps"}
)
