// Mesh: the spatially sharded engine on a declarative city-scale
// topology. Builds a grid of dense cells far enough apart to be mutually
// inaudible, shows how the engine partitions the audibility graph into
// interference domains, runs contending closed-loop flows in every cell
// concurrently, and prints per-flow throughput and Jain fairness —
// bit-identical for any -workers value.
package main

import (
	"flag"
	"fmt"

	"ppr"
	"ppr/internal/stats"
)

func main() {
	cells := flag.Int("cells", 3, "cells per grid side")
	perCell := flag.Int("percell", 6, "nodes per cell")
	spacing := flag.Float64("spacing", 2000, "cell spacing, feet")
	duration := flag.Float64("dur", 0.1, "simulated seconds")
	workers := flag.Int("workers", 0, "domain workers (0 = all cores; results identical)")
	seed := flag.Uint64("seed", 1, "placement/channel seed")
	flag.Parse()

	params := ppr.DefaultChannelParams()
	tp, err := ppr.CellGridTopology(*cells, *cells, *perCell, *spacing, 25, params, *seed)
	if err != nil {
		panic(err)
	}

	// The engine prunes links below the audibility floor; the connected
	// components of what remains are the independent event queues.
	domainOf, n := tp.Domains(ppr.AudibilityFloorDBm(params))
	fmt.Printf("%d nodes in %dx%d cells %g ft apart -> %d interference domains\n",
		tp.NumNodes(), *cells, *cells, *spacing, n)
	fmt.Printf("node %s sits in domain %d; floor %.0f dBm\n\n",
		tp.Name(0), domainOf[0], ppr.AudibilityFloorDBm(params))

	// Pair up adjacent nodes inside each cell: node 2k streams to 2k+1.
	var flows []ppr.ClosedLoopFlow
	for base := 0; base < tp.NumNodes(); base += *perCell {
		for k := 0; k+1 < *perCell; k += 2 {
			flows = append(flows, ppr.ClosedLoopFlow{Sender: base + k, Receiver: base + k + 1})
		}
	}

	for _, layer := range ppr.LinkLayers() {
		res, err := ppr.RunClosedLoop(ppr.ClosedLoopConfig{
			Topo:         tp,
			Flows:        flows,
			LinkLayer:    layer,
			PacketBytes:  250,
			DurationSec:  *duration,
			CarrierSense: true,
			Seed:         *seed,
			Workers:      *workers,
		})
		if err != nil {
			panic(err)
		}
		var kbps []float64
		for _, fr := range res.Flows {
			kbps = append(kbps, float64(fr.DeliveredAppBytes)*8 / *duration / 1000)
		}
		fmt.Printf("%-16s aggregate %7.0f Kbit/s  median %6.0f  fairness %.3f  (%d domains)\n",
			layer, res.AggregateKbps(), stats.MedianOrZero(kbps), stats.JainFairness(kbps), res.Domains)
	}
}
