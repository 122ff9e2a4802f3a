package schemes

// Test-only access to the FEC schemes' block scoring.
var (
	BlockRepaired    = blockRepaired
	ChannelErrorBits = channelErrorBits
	Deinterleaved    = deinterleaved
	FECLayout        = fecLayout
)
