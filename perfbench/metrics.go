package main

// metric describes one reported number. The catalogue below is the single
// list the program reports and BENCHMARK.json declares (a test keeps the
// two equal); moves names the end-to-end metric and workload a per-layer
// metric should move.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
	moves  string  // per-layer only
}

// Workload names.
const (
	wTraceHigh = "trace-high"
	wFig17     = "closed-fig17"
	wPprd      = "pprd-loopback"
)

// endToEnd is reported by every workload with --trace 0. On the batch
// workloads (trace-high, closed-fig17) one repetition is one operation: a
// "flow" there is one full operating point or one full Fig. 17. The
// pprd-loopback open-loop latencies are not among them: on a shared 2-vCPU
// host their spread between runs was wider than any bound allows, so the
// report line and the traced run (overhead.p50_ms.*, overhead.p90_ms.*)
// carry them instead.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "run_s", unit: "s", better: "lower", bound: 0.25},
	{name: "flows_per_s", unit: "1/s", better: "higher", bound: 0.25},
}

const (
	movesTrace = "run_s@" + wTraceHigh
	movesFig17 = "run_s@" + wFig17
	movesP50   = "p50_ms@" + wPprd
	movesTput  = "flows_per_s@" + wPprd
)

// perLayer is reported by every workload with --trace 1; a layer a
// workload does not exercise reads 0 there.
var perLayer = []metric{
	// trace-high: the open-loop trace engine and the recovery schemes.
	{name: "sim.schedule_s", unit: "s", better: "lower", moves: movesTrace},
	{name: "sim.scan_s", unit: "s", better: "lower", moves: movesTrace + ", " + movesFig17},
	{name: "sim.deliver_s", unit: "s", better: "lower", moves: movesTrace},
	{name: "phy.despreads", unit: "count", better: "lower", moves: movesTrace},
	{name: "sim.acquired_ratio", unit: "ratio", better: "higher", moves: movesTrace},
	{name: "schemes.mask_s", unit: "s", better: "lower", moves: movesTrace},
	{name: "schemes.post_s.packet-crc", unit: "s", better: "lower", moves: movesTrace},
	{name: "schemes.post_s.fragmented-crc", unit: "s", better: "lower", moves: movesTrace},
	{name: "schemes.post_s.ppr", unit: "s", better: "lower", moves: movesTrace},
	{name: "schemes.post_s.fec", unit: "s", better: "lower", moves: movesTrace},
	{name: "schemes.post_s.fec-interleaving", unit: "s", better: "lower", moves: movesTrace},
	{name: "schemes.post_s.ppr-fec", unit: "s", better: "lower", moves: movesTrace},

	// closed-fig17: the closed-loop simulator and PP-ARQ inside it.
	{name: "netsim.run_s.pp-arq", unit: "s", better: "lower", moves: movesFig17},
	{name: "netsim.run_s.frag-crc-arq", unit: "s", better: "lower", moves: movesFig17},
	{name: "netsim.run_s.packet-crc-arq", unit: "s", better: "lower", moves: movesFig17},
	{name: "netsim.transfers.pp-arq", unit: "count", better: "higher", moves: movesFig17},
	{name: "netsim.transfers.frag-crc-arq", unit: "count", better: "higher", moves: movesFig17},
	{name: "netsim.transfers.packet-crc-arq", unit: "count", better: "higher", moves: movesFig17},
	{name: "netsim.failures.pp-arq", unit: "count", better: "lower", moves: movesFig17},
	{name: "netsim.failures.frag-crc-arq", unit: "count", better: "lower", moves: movesFig17},
	{name: "netsim.failures.packet-crc-arq", unit: "count", better: "lower", moves: movesFig17},
	{name: "pparq.transfer_s", unit: "s", better: "lower", moves: movesFig17},
	{name: "pparq.link_wait_s", unit: "s", better: "lower", moves: movesFig17},
	{name: "pparq.self_s", unit: "s", better: "lower", moves: movesFig17 + ", " + movesP50},
	{name: "pparq.transmits_per_transfer", unit: "count", better: "lower", moves: movesFig17},
	{name: "softphy.labeled_symbols", unit: "count", better: "lower", moves: movesFig17},

	// Shared by closed-fig17 and pprd-loopback.
	{name: "pparq.rounds_per_transfer", unit: "count", better: "lower", moves: movesFig17 + ", " + movesP50},
	{name: "pparq.air_per_app_byte", unit: "ratio", better: "lower", moves: movesFig17 + ", " + movesTput},

	// pprd-loopback: the link server, its wire codec and the radio head.
	{name: "linkserv.open_us", unit: "us", better: "lower", moves: movesP50},
	{name: "linkserv.transfer_us", unit: "us", better: "lower", moves: movesP50},
	{name: "linkserv.close_us", unit: "us", better: "lower", moves: movesP50},
	{name: "linkserv.server_transfer_us", unit: "us", better: "lower", moves: movesP50},
	{name: "wire.bytes_per_flow", unit: "B", better: "lower", moves: movesTput},
	{name: "wire.writes_per_flow", unit: "count", better: "lower", moves: movesTput},
	{name: "wire.reads_per_flow", unit: "count", better: "lower", moves: movesTput},
	{name: "frame.frames_per_flow", unit: "count", better: "lower", moves: movesTput},
	{name: "frame.sync_us", unit: "us", better: "lower", moves: movesTput},
	{name: "frame.decode_us", unit: "us", better: "lower", moves: movesTput},
	{name: "gen.late_max_ms", unit: "ms", better: "lower", moves: movesP50},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower", moves: movesP50},

	// Every workload: what tracing costs and how much of the run it sees.
	{name: "trace.span_cover", unit: "ratio", better: "higher", moves: "none (tracing quality)"},
	{name: "overhead.run_s.untraced", unit: "s", better: "lower", moves: "none (tracing overhead)"},
	{name: "overhead.run_s.traced", unit: "s", better: "lower", moves: "none (tracing overhead)"},
	{name: "overhead.flows_per_s.untraced", unit: "1/s", better: "higher", moves: "none (tracing overhead)"},
	{name: "overhead.flows_per_s.traced", unit: "1/s", better: "higher", moves: "none (tracing overhead)"},
	{name: "overhead.p50_ms.untraced", unit: "ms", better: "lower", moves: "none (tracing overhead)"},
	{name: "overhead.p50_ms.traced", unit: "ms", better: "lower", moves: "none (tracing overhead)"},
	{name: "overhead.p90_ms.untraced", unit: "ms", better: "lower", moves: "none (tracing overhead)"},
	{name: "overhead.p90_ms.traced", unit: "ms", better: "lower", moves: "none (tracing overhead)"},
}
