package schemes

// Test-only access to the FEC schemes' block scoring and its frozen
// byte-per-bit oracle.
var (
	BlockRepaired    = blockRepaired
	ErrorPattern     = errorPattern
	ChannelErrorBits = channelErrorBits
	Deinterleaved    = deinterleaved
	FECLayout        = fecLayout
)
