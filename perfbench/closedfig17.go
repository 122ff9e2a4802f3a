package main

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"ppr/internal/core/pparq"
	"ppr/internal/core/softphy"
	"ppr/internal/experiments"
	"ppr/internal/frame"
	"ppr/internal/netsim"
	"ppr/internal/phy"
	"ppr/internal/schemes"
)

// The closed-fig17 workload: the full-scale Fig. 17 closed-loop
// experiment — every sampled hidden-terminal sender pair under each of the
// three link layers of the paper's comparison, simulated by netsim.

// tracedLayerName registers the traced PP-ARQ layer; its slug is what the
// traced run hands netsim.
const tracedLayerName = "PP-ARQ Traced"

func init() {
	netsim.RegisterAuxLinkLayer(tracedLayerName, newTracedPPARQ)
}

// layerClock accumulates one traced PP-ARQ run's spans and counts. netsim
// builds link layers through a registry Maker that takes no caller state,
// so the traced run publishes the clock for the run in flight through
// activeClock; the traced runs execute one at a time.
type layerClock struct {
	first, last   time.Time // earliest Transfer start, latest Transfer end
	self          time.Duration
	transfers     int
	transmits     int
	rounds        int
	airBytes      int
	deliveredApp  int
	labeledSymbol int
}

var activeClock atomic.Pointer[layerClock]

// tracedPPARQ is netsim's PP-ARQ layer with timed links and a counting
// labeler. netsim steps its flows as coroutines, so only one goroutine of a
// run executes at a time: the time a Transfer spends outside Transmit is
// the protocol's own work (labels, chunk DP, feedback, recovery).
type tracedPPARQ struct {
	s    *pparq.Sender
	clk  *layerClock
	wait time.Duration // time blocked in Transmit during the current transfer
}

func newTracedPPARQ(fwd, rev pparq.Link, src, dst uint16, cfg netsim.LinkConfig) netsim.LinkLayer {
	l := &tracedPPARQ{clk: activeClock.Load()}
	l.s = pparq.NewSender(timedLink{fwd, l}, timedLink{rev, l}, src, dst, pparq.Config{
		Labeler:     countingLabeler{softphy.Threshold{Eta: softphy.DefaultEta}, l.clk},
		MaxRounds:   cfg.MaxRounds,
		MaxAttempts: cfg.MaxAttempts,
	})
	return l
}

func (l *tracedPPARQ) Name() string { return tracedLayerName }

func (l *tracedPPARQ) AppBytesPerPacket(linkPayloadBytes int) int { return linkPayloadBytes }

// Transfer mirrors netsim's built-in PP-ARQ layer, crediting the verified
// symbols of a given-up transfer.
func (l *tracedPPARQ) Transfer(app []byte) (int, pparq.Stats, error) {
	l.wait = 0
	start := time.Now()
	delivered, st, err := l.s.Transfer(app)
	end := time.Now()
	n := len(delivered)
	if err != nil {
		n = st.VerifiedSymbols * 4 / 8
	}
	c := l.clk
	if c.first.IsZero() || start.Before(c.first) {
		c.first = start
	}
	if end.After(c.last) {
		c.last = end
	}
	c.self += end.Sub(start) - l.wait
	c.transfers++
	c.rounds += st.Rounds
	c.airBytes += st.TotalAirBytes()
	c.deliveredApp += n
	return n, st, err
}

// timedLink charges the time a frame spends in the engine to its layer.
type timedLink struct {
	inner pparq.Link
	l     *tracedPPARQ
}

func (t timedLink) Transmit(f frame.Frame) *frame.Reception {
	start := time.Now()
	rec := t.inner.Transmit(f)
	t.l.wait += time.Since(start)
	t.l.clk.transmits++
	return rec
}

// countingLabeler counts the symbols PP-ARQ labels.
type countingLabeler struct {
	inner softphy.Labeler
	clk   *layerClock
}

func (c countingLabeler) LabelAll(missingPrefix int, ds []phy.Decision) []softphy.Label {
	out := c.inner.LabelAll(missingPrefix, ds)
	c.clk.labeledSymbol += len(out)
	return out
}

// fig17Cell is one (layer, pair) closed-loop run of the experiment.
type fig17Cell struct {
	layer, pair int
}

type closedFig17 struct {
	o experiments.Options
}

// setupFig17 runs Fig17 once at quick scale to warm lazy tables and the
// heap. The workload runs on one worker (Options.Workers = 1): several
// workers split the cells statically, so a run ends with the slower vCPU
// of a shared host and its time drifted with the neighbours' load; one
// worker times the work itself.
func setupFig17(seed uint64) (*closedFig17, func(), error) {
	w := &closedFig17{o: experiments.Options{Seed: seed, Workers: 1}}
	quick := w.o
	quick.Quick = true
	experiments.Fig17(quick)
	return w, nil, nil
}

// digestFig17 hashes the experiment's full result.
func digestFig17(r experiments.Fig17Result) string {
	d := newDigest()
	d.int(len(r.Pairs))
	for _, p := range r.Pairs {
		d.int(p[0])
		d.int(p[1])
	}
	for _, c := range r.Curves {
		d.str(c.Layer)
		for _, k := range c.PairKbps {
			d.f64(k)
		}
		d.int(c.Transfers)
		d.int(c.Failures)
		d.int(c.Air.DataAirBytes)
		d.int(c.Air.RetxAirBytes)
		d.int(c.Air.FeedbackAirBytes)
		d.int(c.Air.Rounds)
		d.int(c.Air.FullResends)
		d.int(c.Air.Misses)
	}
	return d.String()
}

// checkFig17 verifies the result's shape: every layer of the comparison
// ran every pair, moved data, and reports finite, non-negative throughput.
func checkFig17(r experiments.Fig17Result) error {
	layers := netsim.LinkLayers()
	if len(r.Pairs) == 0 || len(r.Curves) != len(layers) {
		return fmt.Errorf("closed-fig17: %d pairs, %d curves", len(r.Pairs), len(r.Curves))
	}
	for i, c := range r.Curves {
		if c.Layer != layers[i] || len(c.PairKbps) != len(r.Pairs) || c.Transfers == 0 || c.Failures > c.Transfers {
			return fmt.Errorf("closed-fig17: layer %q: %d pair results, %d transfers, %d failures",
				c.Layer, len(c.PairKbps), c.Transfers, c.Failures)
		}
		for _, k := range c.PairKbps {
			if k < 0 || math.IsNaN(k) || math.IsInf(k, 0) {
				return fmt.Errorf("closed-fig17: layer %q pair throughput %v", c.Layer, k)
			}
		}
	}
	return nil
}

func runFig17(c runConfig) (report, error) {
	w, setup, err := repeatSetup(func() (*closedFig17, func(), error) { return setupFig17(c.seed) })
	if err != nil {
		return report{}, err
	}
	rep := newReport()
	var first string
	var pairs int
	reps := repeatFor(c.budget, func() float64 {
		var r experiments.Fig17Result
		t := timeIt(func() { r = experiments.Fig17(w.o) })
		rep.ops.add(checkFig17(r))
		dg := digestFig17(r)
		if first == "" {
			first = dg
			pairs = len(r.Pairs)
			rep.info["digest"] = dg
		}
		rep.ops.check(dg == first, "closed-fig17: digest %s differs from first repetition's %s", dg, first)
		return t
	})
	rep.metrics = batchMetrics(reps)
	rep.metrics["setup_s"] = setup
	rep.info["repetition_s"] = reps
	rep.info["params"] = map[string]any{
		"pairs": pairs, "layers": netsim.LinkLayers(),
		"packet_bytes": w.o.PacketBytes(), "saturated": true, "carrier_sense": true,
	}
	return rep, nil
}

// cellConfig rebuilds the netsim configuration Fig17 runs for one cell.
func cellConfig(o experiments.Options, r experiments.Fig17Result, layer string, pair int) netsim.Config {
	tb := o.Bed()
	p := r.Pairs[pair]
	return netsim.Config{
		Testbed: tb,
		Flows: []netsim.Flow{
			{Sender: p[0], Receiver: tb.BestReceiver(p[0])},
			{Sender: p[1], Receiver: tb.BestReceiver(p[1])},
		},
		LinkLayer:    layer,
		PacketBytes:  r.PacketBytes,
		DurationSec:  r.DurationSec,
		CarrierSense: r.CarrierSense,
		OfferedBps:   experiments.LoadHigh,
		Seed:         o.Seed ^ (uint64(pair+1) << 16),
	}
}

// traceFig17 is the traced run. Each iteration times one untraced Fig17,
// replays every (layer, pair) cell of it through netsim.Run one after
// another, as Fig17 runs them on one worker, timing each call, then reruns
// every pair under the traced PP-ARQ layer one at a time. Each replayed
// cell must reproduce the untraced pair throughput, and each traced-layer
// result must equal the built-in PP-ARQ result.
func traceFig17(c runConfig) (report, error) {
	w, _, err := setupFig17(c.seed)
	if err != nil {
		return report{}, err
	}
	layers := netsim.LinkLayers()
	if layers[0] != "pp-arq" {
		return report{}, fmt.Errorf("closed-fig17: expected pp-arq as the first link layer, got %v", layers)
	}
	rep := newReport()
	var first string
	type layerSums struct{ run, transfers, failures []float64 }
	sums := make([]layerSums, len(layers))
	var untraced, walls, covers []float64
	var transfer, wait, self, transmits, rounds, air, labeled []float64
	iterations := repeatFor(c.budget, func() float64 {
		return timeIt(func() {
			var base experiments.Fig17Result
			untraced = append(untraced, timeIt(func() { base = experiments.Fig17(w.o) }))
			rep.ops.add(checkFig17(base))
			if first == "" {
				first = digestFig17(base)
			}
			rep.ops.check(digestFig17(base) == first, "closed-fig17: untraced digest differs between iterations")

			cells := make([]fig17Cell, 0, len(layers)*len(base.Pairs))
			for li := range layers {
				for pi := range base.Pairs {
					cells = append(cells, fig17Cell{li, pi})
				}
			}
			results := make([]netsim.Result, len(cells))
			spans := make([]float64, len(cells))
			errs := make([]error, len(cells))
			wall := timeIt(func() {
				for j, cell := range cells {
					cfg := cellConfig(w.o, base, layers[cell.layer], cell.pair)
					spans[j] = timeIt(func() { results[j], errs[j] = netsim.Run(cfg) })
				}
			})
			walls = append(walls, wall)
			busy := 0.0
			run := make([]float64, len(layers))
			xfers := make([]float64, len(layers))
			fails := make([]float64, len(layers))
			for j, cell := range cells {
				busy += spans[j]
				run[cell.layer] += spans[j]
				r := results[j]
				if errs[j] != nil {
					rep.ops.add(errs[j])
					continue
				}
				rep.ops.check(r.AggregateKbps() == base.Curves[cell.layer].PairKbps[cell.pair],
					"closed-fig17: replayed %s pair %d gives %v Kbit/s, untraced %v",
					layers[cell.layer], cell.pair, r.AggregateKbps(), base.Curves[cell.layer].PairKbps[cell.pair])
				for _, f := range r.Flows {
					xfers[cell.layer] += float64(f.Transfers)
					fails[cell.layer] += float64(f.Failures)
				}
			}
			for li := range layers {
				sums[li].run = append(sums[li].run, run[li])
				sums[li].transfers = append(sums[li].transfers, xfers[li])
				sums[li].failures = append(sums[li].failures, fails[li])
			}
			covers = append(covers, busy/wall)

			// The traced PP-ARQ layer, pair by pair.
			var tot layerClock
			var spanned time.Duration
			for pi := range base.Pairs {
				clk := &layerClock{}
				activeClock.Store(clk)
				got, err := netsim.Run(cellConfig(w.o, base, schemes.Slug(tracedLayerName), pi))
				activeClock.Store(nil)
				if err != nil {
					rep.ops.add(err)
					continue
				}
				want := results[pi] // layer 0 is pp-arq
				rep.ops.check(reflect.DeepEqual(got, want),
					"closed-fig17: traced pp-arq result for pair %d differs from the built-in layer", pi)
				spanned += clk.last.Sub(clk.first)
				tot.self += clk.self
				tot.transfers += clk.transfers
				tot.transmits += clk.transmits
				tot.rounds += clk.rounds
				tot.airBytes += clk.airBytes
				tot.deliveredApp += clk.deliveredApp
				tot.labeledSymbol += clk.labeledSymbol
			}
			transfer = append(transfer, spanned.Seconds())
			self = append(self, tot.self.Seconds())
			wait = append(wait, (spanned - tot.self).Seconds())
			transmits = append(transmits, ratio(tot.transmits, tot.transfers))
			rounds = append(rounds, ratio(tot.rounds, tot.transfers))
			air = append(air, ratio(tot.airBytes, tot.deliveredApp))
			labeled = append(labeled, float64(tot.labeledSymbol))
		})
	})
	rep.metrics = map[string]float64{
		"pparq.transfer_s":             median(transfer),
		"pparq.link_wait_s":            median(wait),
		"pparq.self_s":                 median(self),
		"pparq.transmits_per_transfer": median(transmits),
		"pparq.rounds_per_transfer":    median(rounds),
		"pparq.air_per_app_byte":       median(air),
		"softphy.labeled_symbols":      median(labeled),
		"trace.span_cover":             median(covers),
	}
	for li, l := range layers {
		rep.metrics["netsim.run_s."+l] = median(sums[li].run)
		rep.metrics["netsim.transfers."+l] = median(sums[li].transfers)
		rep.metrics["netsim.failures."+l] = median(sums[li].failures)
	}
	overhead(rep.metrics, "untraced", batchMetrics(untraced))
	overhead(rep.metrics, "traced", batchMetrics(walls))
	rep.info["iterations"] = len(iterations)
	rep.info["digest"] = first
	return rep, nil
}

// ratio is a/b as a float, 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
