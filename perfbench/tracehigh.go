package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"ppr/internal/experiments"
	"ppr/internal/phy"
	"ppr/internal/schemes"
	"ppr/internal/sim"
)

// The trace-high workload: one full-scale operating point of the open-loop
// trace engine at the paper's high load with carrier sense off (Fig. 10's
// point), rebuilt from a fresh TraceCache every repetition and scored by
// every registered recovery scheme under both receiver variants.

type traceHigh struct {
	o  experiments.Options
	ss []schemes.RecoveryScheme
}

// traceHighResult is one repetition's output: the trace and one per-link
// accumulator map per (scheme, variant), schemes outermost.
type traceHighResult struct {
	tr   *experiments.Trace
	accs []map[experiments.LinkKey]experiments.LinkAccum
}

// setupTraceHigh derives the inputs from the seed and runs the pipeline once
// at quick scale, so lazy tables, worker pools and the heap are warm before
// the full-scale repetitions are timed.
//
// The workload runs on one worker (Options.Workers = 1). On several
// workers its time followed how much of a shared host's other vCPUs it
// got, which drifted with the neighbours' load; one worker times the work
// itself.
func setupTraceHigh(seed uint64) (*traceHigh, func(), error) {
	w := &traceHigh{o: experiments.Options{Seed: seed, Workers: 1}, ss: schemes.All()}
	quick := w.o
	quick.Quick = true
	w.runOnce(quick)
	return w, nil, nil
}

// runOnce is the untraced unit of work.
func (w *traceHigh) runOnce(o experiments.Options) traceHighResult {
	o.Cache = experiments.NewTraceCache()
	tr := o.Trace(experiments.LoadHigh, false)
	pp := tr.Post(o.Workers)
	return traceHighResult{tr: tr, accs: w.score(pp, nil)}
}

// score runs PerLinkDelivery for every (scheme, variant). When spent is
// non-nil it accumulates each call's wall time under the scheme's slug.
func (w *traceHigh) score(pp *experiments.Post, spent map[string]float64) []map[experiments.LinkKey]experiments.LinkAccum {
	p := experiments.DefaultSchemeParams()
	var accs []map[experiments.LinkKey]experiments.LinkAccum
	for _, s := range w.ss {
		for v := range experiments.StandardVariants() {
			var acc map[experiments.LinkKey]experiments.LinkAccum
			d := timeIt(func() { acc = pp.PerLinkDelivery(v, s, p) })
			if spent != nil {
				spent[schemes.Slug(s.Name())] += d
			}
			accs = append(accs, acc)
		}
	}
	return accs
}

// digest hashes everything the repetition reports: outcome acquisition and
// every per-link accumulator in key order.
func (r traceHighResult) digest() string {
	d := newDigest()
	d.int(len(r.tr.Txs))
	d.int(len(r.tr.Outs))
	for i := range r.tr.Outs {
		o := &r.tr.Outs[i]
		d.bool(o.Acquired)
		d.bool(o.CRCOK)
		d.int(len(o.Decisions))
	}
	for _, acc := range r.accs {
		keys := make([]experiments.LinkKey, 0, len(acc))
		for k := range acc {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].Src != keys[b].Src {
				return keys[a].Src < keys[b].Src
			}
			return keys[a].Rcv < keys[b].Rcv
		})
		d.int(len(keys))
		for _, k := range keys {
			a := acc[k]
			d.int(k.Src)
			d.int(k.Rcv)
			d.int(a.DeliveredBytes)
			d.int(a.SentBytes)
			d.int(a.Packets)
		}
	}
	return d.String()
}

// check verifies the invariants every repetition must satisfy: a
// non-empty trace in which something was acquired, and no link credited
// with more than it was offered.
func (r traceHighResult) check() error {
	acquired := 0
	for i := range r.tr.Outs {
		if r.tr.Outs[i].Acquired {
			acquired++
		}
	}
	if len(r.tr.Txs) == 0 || acquired == 0 {
		return fmt.Errorf("trace-high: %d transmissions, %d acquired outcomes", len(r.tr.Txs), acquired)
	}
	for _, acc := range r.accs {
		for k, a := range acc {
			if a.DeliveredBytes < 0 || a.DeliveredBytes > a.SentBytes {
				return fmt.Errorf("trace-high: link %v delivered %d of %d bytes", k, a.DeliveredBytes, a.SentBytes)
			}
		}
	}
	return nil
}

// runTraceHigh measures the untraced workload.
func runTraceHigh(c runConfig) (report, error) {
	w, setup, err := repeatSetup(func() (*traceHigh, func(), error) { return setupTraceHigh(c.seed) })
	if err != nil {
		return report{}, err
	}
	rep := newReport()
	var first string
	reps := repeatFor(c.budget, func() float64 {
		var r traceHighResult
		t := timeIt(func() { r = w.runOnce(w.o) })
		rep.ops.add(r.check())
		dg := r.digest()
		if first == "" {
			first = dg
			rep.info["digest"] = dg
		}
		rep.ops.check(dg == first, "trace-high: digest %s differs from first repetition's %s", dg, first)
		return t
	})
	rep.metrics = batchMetrics(reps)
	rep.metrics["setup_s"] = setup
	rep.info["repetition_s"] = reps
	rep.info["params"] = map[string]any{
		"offered_bps": experiments.LoadHigh, "carrier_sense": false,
		"packet_bytes": w.o.PacketBytes(), "duration_s": w.o.DurationSec(),
		"schemes": len(w.ss), "variants": len(experiments.StandardVariants()),
	}
	return rep, nil
}

// countingDecoder is a hard-decision decoder that counts its calls.
type countingDecoder struct{ n *atomic.Int64 }

func (d countingDecoder) Decode(obs phy.Observation) phy.Decision {
	d.n.Add(1)
	return phy.HardDecoder{}.Decode(obs)
}

func (d countingDecoder) Name() string { return phy.HardDecoder{}.Name() }

// traceTraceHigh is the traced run. Each iteration times one untraced
// repetition and then replays its configuration layer by layer — schedule,
// sync scan alone, full delivery, masks, each scheme — checking that the
// replay reproduces the untraced transmissions, outcomes and accumulators.
// Pairing the two in one iteration keeps host drift out of their ratio.
func traceTraceHigh(c runConfig) (report, error) {
	w, _, err := setupTraceHigh(c.seed)
	if err != nil {
		return report{}, err
	}
	rep := newReport()
	var first string
	var untraced, sched, scan, deliver, mask, wall, cover, acquired, despreads []float64
	post := map[string][]float64{}
	iterations := repeatFor(c.budget, func() float64 {
		return timeIt(func() {
			var base traceHighResult
			u := timeIt(func() { base = w.runOnce(w.o) })
			untraced = append(untraced, u)
			rep.ops.add(base.check())
			if first == "" {
				first = base.digest()
			}
			rep.ops.check(base.digest() == first, "trace-high: untraced digest differs between iterations")
			cfg := base.tr.Cfg

			var txs []*sim.Transmission
			t := timeIt(func() { txs = sim.Schedule(cfg) })
			sched = append(sched, t)
			rep.ops.add(sameTxs(txs, base.tr.Txs))

			// The scan pass leaves txs' chips spread, so the timed delivery
			// gets its own fresh schedule and pays spreading itself.
			scan = append(scan, timeIt(func() { sim.Deliver(cfg, txs, nil) }))
			fresh := sim.Schedule(cfg)
			var outs []sim.Outcome
			d := timeIt(func() { outs = sim.Deliver(cfg, fresh, experiments.StandardVariants()) })
			deliver = append(deliver, d)
			rep.ops.add(sameOutcomes(outs, base.tr.Outs))

			var n atomic.Int64
			counted := experiments.StandardVariants()
			for i := range counted {
				counted[i].Decoder = countingDecoder{n: &n}
			}
			rep.ops.add(sameOutcomes(sim.Deliver(cfg, txs, counted), base.tr.Outs))
			despreads = append(despreads, float64(n.Load()))

			var pp *experiments.Post
			m := timeIt(func() { pp = experiments.NewPost(outs, cfg.PacketBytes, w.o.Workers) })
			mask = append(mask, m)
			spent := map[string]float64{}
			accs := w.score(pp, spent)
			rep.ops.check(traceHighResult{tr: base.tr, accs: accs}.digest() == first,
				"trace-high: traced scoring differs from the untraced run")

			pipeline := t + d + m
			for slug, s := range spent {
				post[slug] = append(post[slug], s)
				pipeline += s
			}
			wall = append(wall, pipeline)
			cover = append(cover, pipeline/u)
			a := 0
			for i := range outs {
				a += boolInt(outs[i].Acquired)
			}
			acquired = append(acquired, float64(a)/float64(len(outs)))
		})
	})
	rep.metrics = map[string]float64{
		"sim.schedule_s":     median(sched),
		"sim.scan_s":         median(scan),
		"sim.deliver_s":      median(deliver),
		"phy.despreads":      median(despreads),
		"sim.acquired_ratio": median(acquired),
		"schemes.mask_s":     median(mask),
		"trace.span_cover":   median(cover),
	}
	for slug, xs := range post {
		rep.metrics["schemes.post_s."+slug] = median(xs)
	}
	overhead(rep.metrics, "untraced", batchMetrics(untraced))
	overhead(rep.metrics, "traced", batchMetrics(wall))
	rep.info["iterations"] = len(iterations)
	rep.info["digest"] = first
	return rep, nil
}

// sameTxs reports whether a re-run schedule matches the traced one.
func sameTxs(got, want []*sim.Transmission) error {
	if len(got) != len(want) {
		return fmt.Errorf("trace-high: replayed schedule has %d transmissions, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Src != w.Src || g.StartChip != w.StartChip || g.Frame.Hdr != w.Frame.Hdr ||
			!bytes.Equal(g.Frame.Payload, w.Frame.Payload) || !bytes.Equal(g.TruthSyms, w.TruthSyms) {
			return fmt.Errorf("trace-high: replayed transmission %d differs", i)
		}
	}
	return nil
}

// sameOutcomes reports whether a replayed delivery reproduced the traced
// outcomes exactly, decisions and hints included.
func sameOutcomes(got, want []sim.Outcome) error {
	if len(got) != len(want) {
		return fmt.Errorf("trace-high: replay produced %d outcomes, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.TxID != w.TxID || g.Src != w.Src || g.Receiver != w.Receiver || g.Variant != w.Variant ||
			g.Acquired != w.Acquired || g.Kind != w.Kind || g.CRCOK != w.CRCOK ||
			g.MissingPrefix != w.MissingPrefix || !slices.Equal(g.Decisions, w.Decisions) ||
			!bytes.Equal(g.TruthSyms, w.TruthSyms) {
			return fmt.Errorf("trace-high: replayed outcome %d differs", i)
		}
	}
	return nil
}
