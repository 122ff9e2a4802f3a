package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppr/internal/core/pparq"
	"ppr/internal/frame"
	"ppr/internal/linkserv"
	"ppr/internal/obs"
	"ppr/internal/phy"
	"ppr/internal/stats"
)

// The pprd-loopback workload: a linkserv.Server on a 127.0.0.1 TCP
// listener in this process, driven by one client per CPU over one
// connection each. A flow is Open → Transfer(256 B) → verify → Close. A
// seeded impairment damages the data frame of a fixed share of flows with
// a chip-error burst, so PP-ARQ feedback and partial retransmissions cross
// the wire. A pass alternates closed-loop saturation segments (one driver
// per connection) with open-loop segments of Poisson flow arrivals at a
// fixed rate, each flow timed from its due time.
const (
	pprdPayloadBytes = 256
	// pprdImpairShare is the share of flows whose data frame is damaged.
	pprdImpairShare = 0.25
	// pprdBurstChips is the length of the damaging chip burst; every chip
	// in it is replaced by a fair coin flip.
	pprdBurstChips = 512
	// pprdOpenRate is the open-loop arrival rate, flows per second: about a
	// quarter of the saturated rate on a 2-vCPU machine.
	pprdOpenRate = 1000
	// pprdOpenWorkers bounds the flows the open-loop generator keeps in
	// flight; a stall past that many flows delays the ones behind it.
	pprdOpenWorkers = 32
	// pprdBatchFlows sizes run_s: how long this many flows take at the
	// saturated rate.
	pprdBatchFlows = 500
	// pprdWarmFlows is how many flows each client runs during set-up.
	pprdWarmFlows = 16
	// pprdPayloads is the size of the seeded payload pool.
	pprdPayloads = 4096
	// pprdReplayCap bounds how many impaired buffers the traced run keeps
	// for the radio-head replay.
	pprdReplayCap = 4096
	// pprdSeenSlots is the size of an impairer's record of recent flows. A
	// client opens flows with consecutive IDs and has at most
	// pprdOpenWorkers of them in flight, so a flow's slot is not reused
	// while it is still open.
	pprdSeenSlots = 1024
)

// impairer is one client's simulated channel: keyed by the flow ID, it
// damages the first forward frame of a share of flows — the transfer's
// data frame — and leaves everything else clean, so every flow completes.
type impairer struct {
	seed   uint64
	client int

	mu   sync.Mutex
	seen [pprdSeenSlots]uint32 // by flow ID mod the size: the last flow whose data frame passed

	calls atomic.Int64
	keep  func(*frame.ChipBuffer) // traced runs: copy of each impaired buffer
}

func (m *impairer) impair(dir byte, flow uint32, chips *frame.ChipBuffer) {
	m.calls.Add(1)
	if dir == linkserv.DirForward {
		m.mu.Lock()
		slot := &m.seen[flow%pprdSeenSlots]
		first := *slot != flow
		*slot = flow
		m.mu.Unlock()
		if first {
			damage(stats.NewRNG(m.seed).Derive(uint64(m.client), uint64(flow)), chips)
		}
	}
	if m.keep != nil {
		m.keep(chips)
	}
}

// damage randomizes a burst of chips inside the payload of pprdImpairShare
// of the frames rng is drawn for.
func damage(rng *stats.RNG, chips *frame.ChipBuffer) {
	if !rng.Bool(pprdImpairShare) {
		return
	}
	lo := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
	span := pprdPayloadBytes*frame.ChipsPerByte - pprdBurstChips
	at := lo + rng.Intn(span)
	for i := 0; i < pprdBurstChips; i++ {
		if rng.Uint64()&1 == 1 {
			chips.FlipBit(at + i)
		}
	}
}

// countingConn counts the bytes and calls crossing a client's connection.
type countingConn struct {
	net.Conn
	reads, writes, bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writes.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// pprdRig is one server with its clients.
type pprdRig struct {
	srv      *linkserv.Server
	served   chan error
	clients  []*linkserv.Client
	conns    []*countingConn // traced rigs only
	imps     []*impairer
	tracer   *obs.Tracer
	payloads [][]byte

	keptMu sync.Mutex
	kept   []*frame.ChipBuffer
}

// newPprdRig starts a server on a loopback listener, dials one client per
// CPU and runs a few warm-up flows on each. A traced rig records server
// spans, counts connection traffic and keeps impaired buffers for replay.
func newPprdRig(seed uint64, traced bool) (*pprdRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("pprd-loopback: listen: %w", err)
	}
	r := &pprdRig{served: make(chan error, 1), payloads: seededPayloads(seed)}
	cfg := linkserv.Config{}
	if traced {
		r.tracer = obs.NewTracer()
		cfg.Tracer = r.tracer
	}
	r.srv = linkserv.NewServer(cfg)
	go func() { r.served <- r.srv.Serve(ln) }()

	for i := 0; i < runtime.NumCPU(); i++ {
		imp := &impairer{seed: seed, client: i}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			r.close()
			return nil, fmt.Errorf("pprd-loopback: dial: %w", err)
		}
		if traced {
			cc := &countingConn{Conn: conn}
			r.conns = append(r.conns, cc)
			conn = cc
			imp.keep = r.keep
		}
		r.imps = append(r.imps, imp)
		r.clients = append(r.clients, linkserv.NewClient(conn, linkserv.ClientConfig{Impair: imp.impair}))
	}
	for i := range r.clients {
		for k := 0; k < pprdWarmFlows; k++ {
			if _, err := r.flow(i, k, nil); err != nil {
				r.close()
				return nil, fmt.Errorf("pprd-loopback: warm-up flow: %w", err)
			}
		}
	}
	return r, nil
}

// seededPayloads draws the payload pool from the seed.
func seededPayloads(seed uint64) [][]byte {
	rng := stats.NewRNG(seed ^ 0x9bd)
	out := make([][]byte, pprdPayloads)
	for i := range out {
		out[i] = make([]byte, pprdPayloadBytes)
		for j := range out[i] {
			out[i][j] = byte(rng.Uint64())
		}
	}
	return out
}

// keep stores a copy of an impaired buffer for the radio-head replay.
func (r *pprdRig) keep(chips *frame.ChipBuffer) {
	r.keptMu.Lock()
	defer r.keptMu.Unlock()
	if len(r.kept) < pprdReplayCap {
		r.kept = append(r.kept, chips.Clone())
	}
}

// close stops the clients and drains the server, waiting for every
// goroutine either started.
func (r *pprdRig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	<-r.served
}

// flowTimes is one flow's client-side call durations.
type flowTimes struct{ open, transfer, close time.Duration }

// flow runs one Open → Transfer → verify → Close on client ci with the
// k-th payload of the pool.
func (r *pprdRig) flow(ci, k int, t *flowTimes) (pparq.Stats, error) {
	payload := r.payloads[k%len(r.payloads)]
	t0 := time.Now()
	f, err := r.clients[ci].Open()
	if err != nil {
		return pparq.Stats{}, fmt.Errorf("open: %w", err)
	}
	t1 := time.Now()
	got, st, err := f.Transfer(payload)
	t2 := time.Now()
	if err != nil {
		f.Close()
		return st, fmt.Errorf("transfer: %w", err)
	}
	if err := f.Close(); err != nil {
		return st, fmt.Errorf("close: %w", err)
	}
	if !bytes.Equal(got, payload) {
		return st, errors.New("delivered payload differs from the one sent")
	}
	if t != nil {
		*t = flowTimes{open: t1.Sub(t0), transfer: t2.Sub(t1), close: time.Since(t2)}
	}
	return st, nil
}

// pprdRun is what the segments of one rig measured.
type pprdRun struct {
	ops   *tally
	timed bool // keep each open-loop flow's call durations
	next  int  // payload index of the next flow

	mu       sync.Mutex // guards the totals below
	rounds   int
	airBytes int
	appBytes int

	satFlows int
	satRates []float64 // flows per second, one per saturation segment
	p50s     []float64 // open-loop latency percentiles, one per segment, ms
	p90s     []float64
	open     []openSample // every open-loop flow
	times    []flowTimes  // open-loop call durations, timed runs only
}

// record counts one flow and adds its protocol accounting.
func (p *pprdRun) record(st pparq.Stats, err error) {
	p.ops.add(err)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rounds += st.Rounds
	p.airBytes += st.TotalAirBytes()
	if err == nil {
		p.appBytes += pprdPayloadBytes
	}
}

// metrics returns the end-to-end metrics of the run: medians over its
// segments, so a transient disturbance of the host moves few of them.
func (p *pprdRun) metrics() map[string]float64 {
	return map[string]float64{
		"run_s":       pprdBatchFlows / median(p.satRates),
		"flows_per_s": median(p.satRates),
		"p50_ms":      median(p.p50s),
		"p90_ms":      median(p.p90s),
	}
}

// pprdSegments is how many saturation and open-loop segments a run
// alternates between.
const pprdSegments = 10

// segment runs saturation segment i for d, then open-loop segment i for d.
func (r *pprdRig) segment(seed uint64, i int, d time.Duration, run *pprdRun) {
	run.next += r.saturate(d, run)
	run.next += r.openLoop(stats.NewRNG(seed^0x0be1).Derive(uint64(i)), d, run)
}

// saturate runs one closed-loop driver per connection for d and returns
// how many flows completed.
func (r *pprdRig) saturate(d time.Duration, run *pprdRun) int {
	counts := make([]int, len(r.clients))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for ci := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := run.next + ci; time.Now().Before(deadline); k += len(r.clients) {
				run.record(r.flow(ci, k, nil))
				counts[ci]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	n := 0
	for _, c := range counts {
		n += c
	}
	run.satFlows += n
	run.satRates = append(run.satRates, float64(n)/elapsed.Seconds())
	return n
}

// openLoop issues Poisson flow arrivals at pprdOpenRate for d, each timed
// from its due time, and returns how many flows it issued.
func (r *pprdRig) openLoop(rng *stats.RNG, d time.Duration, run *pprdRun) int {
	due := poissonSchedule(rng, pprdOpenRate, max(int(pprdOpenRate*d.Seconds()), 1))
	var times []flowTimes
	if run.timed {
		times = make([]flowTimes, len(due))
	}
	samples := runOpenLoop(due, pprdOpenWorkers, func(i int) error {
		var t *flowTimes
		if run.timed {
			t = &times[i]
		}
		st, err := r.flow(i%len(r.clients), run.next+i, t)
		run.record(st, err)
		return err
	})
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = float64(s.latency()) / float64(time.Millisecond)
	}
	p90, _ := percentile(lat, 0.9)
	run.p50s = append(run.p50s, median(lat))
	run.p90s = append(run.p90s, p90)
	run.open = append(run.open, samples...)
	run.times = append(run.times, times...)
	return len(samples)
}

func runPprd(c runConfig) (report, error) {
	r, setup, err := repeatSetup(func() (*pprdRig, func(), error) {
		r, err := newPprdRig(c.seed, false)
		if err != nil {
			return nil, nil, err
		}
		return r, r.close, nil
	})
	if err != nil {
		return report{}, err
	}
	defer r.close()
	rep := newReport()
	run := &pprdRun{ops: rep.ops}
	seg := c.budget / (2 * pprdSegments)
	for i := 0; i < pprdSegments; i++ {
		r.segment(c.seed, i, seg, run)
	}
	rep.metrics = run.metrics()
	rep.metrics["setup_s"] = setup
	rep.info["saturated_flows"] = run.satFlows
	rep.info["segment_flows_per_s"] = run.satRates
	// The open-loop latencies, medians over segments of each segment's
	// percentile over its flows; not end-to-end metrics (see endToEnd).
	rep.info["open_loop_p50_ms"] = rep.metrics["p50_ms"]
	rep.info["open_loop_p90_ms"] = rep.metrics["p90_ms"]
	rep.info["segment_p50_ms"] = run.p50s
	rep.info["segment_p90_ms"] = run.p90s
	rep.info["open_loop_flows"] = len(run.open)
	rep.info["params"] = pprdParams()
	return rep, nil
}

func pprdParams() map[string]any {
	return map[string]any{
		"clients": runtime.NumCPU(), "payload_bytes": pprdPayloadBytes,
		"impair_share": pprdImpairShare, "burst_chips": pprdBurstChips,
		"open_rate_per_s": pprdOpenRate, "open_workers": pprdOpenWorkers,
		"batch_flows": pprdBatchFlows, "listener": "tcp 127.0.0.1",
	}
}

// tracePprd is the traced run: a plain rig and a traced rig take turns
// segment by segment, so host drift touches both alike. The traced rig
// times each client call, counts wire traffic and impairments, collects
// the server's transfer spans and keeps the impaired buffers, which are
// replayed afterwards through the radio head's sync scan and decode.
func tracePprd(c runConfig) (report, error) {
	rep := newReport()
	plain, err := newPprdRig(c.seed, false)
	if err != nil {
		return report{}, err
	}
	r, err := newPprdRig(c.seed, true)
	if err != nil {
		plain.close()
		return report{}, err
	}
	var bytes0, reads0, writes0, calls0 int64
	for i, cc := range r.conns {
		bytes0 += cc.bytes.Load()
		reads0 += cc.reads.Load()
		writes0 += cc.writes.Load()
		calls0 += r.imps[i].calls.Load()
	}
	r.keptMu.Lock()
	r.kept = r.kept[:0]
	r.keptMu.Unlock()

	base := &pprdRun{ops: rep.ops}
	traced := &pprdRun{ops: rep.ops, timed: true}
	seg := c.budget / (4 * pprdSegments)
	for i := 0; i < pprdSegments; i++ {
		plain.segment(c.seed, i, seg, base)
		r.segment(c.seed, i, seg, traced)
	}
	plain.close()
	r.close()

	flows := float64(traced.satFlows + len(traced.open))
	var nbytes, reads, writes, calls int64
	for i, cc := range r.conns {
		nbytes += cc.bytes.Load()
		reads += cc.reads.Load()
		writes += cc.writes.Load()
		calls += r.imps[i].calls.Load()
	}
	var open, xfer, cls, late []float64
	for i, t := range traced.times {
		if traced.open[i].err == nil {
			open = append(open, us(t.open))
			xfer = append(xfer, us(t.transfer))
			cls = append(cls, us(t.close))
		}
	}
	for _, s := range traced.open {
		late = append(late, float64(s.late())/float64(time.Millisecond))
	}
	lateP99, _ := percentile(late, 0.99)
	lateMax, _ := percentile(late, 1)
	server, err := serverTransferSpans(r.tracer)
	if err != nil {
		return report{}, err
	}
	syncUs, decodeUs := replayRadioHead(r.kept)

	rep.metrics = map[string]float64{
		"linkserv.open_us":            median(open),
		"linkserv.transfer_us":        median(xfer),
		"linkserv.close_us":           median(cls),
		"linkserv.server_transfer_us": median(server),
		"wire.bytes_per_flow":         float64(nbytes-bytes0) / flows,
		"wire.writes_per_flow":        float64(writes-writes0) / flows,
		"wire.reads_per_flow":         float64(reads-reads0) / flows,
		"frame.frames_per_flow":       float64(calls-calls0) / flows,
		"frame.sync_us":               median(syncUs),
		"frame.decode_us":             median(decodeUs),
		"pparq.rounds_per_transfer":   float64(traced.rounds) / flows,
		"pparq.air_per_app_byte":      float64(traced.airBytes) / float64(max(traced.appBytes, 1)),
		"gen.late_max_ms":             lateMax,
		"gen.late_p99_ms":             lateP99,
		// The client-side spans cover a flow's whole life from issue to
		// close; what they miss is the open loop's queueing from due time.
		"trace.span_cover": (median(open) + median(xfer) + median(cls)) / 1e3 / traced.metrics()["p50_ms"],
	}
	overhead(rep.metrics, "untraced", base.metrics())
	overhead(rep.metrics, "traced", traced.metrics())
	rep.info["params"] = pprdParams()
	rep.info["replayed_buffers"] = len(r.kept)
	return rep, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serverTransferSpans extracts the durations, in microseconds, of the
// server's per-transfer spans.
func serverTransferSpans(t *obs.Tracer) ([]float64, error) {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("pprd-loopback: write trace: %w", err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("pprd-loopback: parse trace: %w", err)
	}
	var out []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "transfer" {
			out = append(out, ev.Dur)
		}
	}
	return out, nil
}

// replayRadioHead times the client radio head's two steps — the sync scan
// and the synced decode — over each kept buffer, in microseconds.
func replayRadioHead(bufs []*frame.ChipBuffer) (syncUs, decodeUs []float64) {
	rx := frame.NewReceiver(phy.HardDecoder{})
	var syncs []frame.Sync
	for _, b := range bufs {
		t0 := time.Now()
		syncs = frame.AppendSyncs(syncs[:0], b, rx.SyncMaxDist)
		t1 := time.Now()
		rx.ReceiveSynced(b, syncs)
		decodeUs = append(decodeUs, us(time.Since(t1)))
		syncUs = append(syncUs, us(t1.Sub(t0)))
	}
	return syncUs, decodeUs
}
