package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"ppr/internal/frame"
	"ppr/internal/jam"
	"ppr/internal/obs"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/stats"
	"ppr/internal/topo"
)

// netsimJamGolden holds the SHA-256 of the closed-loop Result under every
// registered jam strategy (baseConfig plus a flow from sender 1, the
// target of "targeted", with the strategy's jam-<name> scenario node on
// sender 9), keyed "<strategy>/<seed>". Recorded at commit c5bca66,
// where periodic and reactive were also checked bit-identical to the
// arrival-model jammers they replaced; the digests now stand in for that
// reference.
var netsimJamGolden = map[string]string{
	"duty/1":      "89d07a40391db9cb58fd6244019aab1277a8f610de6a9920d05a9ad55c3d7968",
	"duty/7":      "72e93af616616af1cd9b5fe186a43a0e05d629f657ec64be58f6ffc3733660a1",
	"duty/42":     "fae47a13953d753259fdbba9aa2af83dae548e803303eb43a10ebe189eefc9b6",
	"learner/1":   "2f4d4d6dad99e99f176ae79603c4bf357c260146dc20f16f6cb172a7659fb959",
	"learner/7":   "4e17d7cb55e807277b173b567f0926da4b231c80ca67e5019000d9f31c36c168",
	"learner/42":  "fe00cadccdc9a69c36ba9dea12b46ea73fd1e7905613b60349b6ced700ace27d",
	"markov/1":    "dffc46eefaf3fcdf17d2b1e4b20d844fd6f9d27662663214c342b1e0daafd20e",
	"markov/7":    "f3f9ad02898c0f8b095d1d6b6655ecbe601f04b8b4aa4bf2ed46a5af962967d3",
	"markov/42":   "8d13daf5e9ef29ec54338d52834df19977fbc696b04330d9cfc4d961b02ba14c",
	"periodic/1":  "7bb1b4dfebf717d25fa3225be2188ab16d47506d505360c4b426822811531211",
	"periodic/7":  "d34a710052e3afd4a17fd106ad2b1328af9a7a9ed4c366fd7d9af2ec35102342",
	"periodic/42": "5d35dccd681367c3f08bd57e3a636ebc8d2e2004972e41c6f5bf53684659d738",
	"preamble/1":  "afb5f6f0d62962a20a573f2e52f190503c70e0377a4fc40ef17a0f8abc99d7bd",
	"preamble/7":  "1d8ee6e495d78b97d8d647c0d49082c92ef8de55493ab4a1d06142e297341f7f",
	"preamble/42": "aadc5757c89ac8a14fac6c4c506ca5f988d325c8408ccaeee7e2873c503f71ca",
	"reactive/1":  "af6d6b8d045214a664e7025c08ac62e291fb70c5ca174e87a34bf0c6b6d0ea66",
	"reactive/7":  "eaf6cf8426bee93741f6f1b77d31b5052e6d458b51569115baa261f8762dd17b",
	"reactive/42": "58f4097a19e75d1f6ee41320396c0a3a0ea784d992e06d0d1add79512e61a4ca",
	"sweep/1":     "c8470b9b727f281cbab01666732e5cb8c968eed9b1f691a314d54b3d6af13b92",
	"sweep/7":     "0b9e355f43345c634ff336535e4c6231a44ecc92dcb51d46f754ee94954a32ca",
	"sweep/42":    "e99089b02aea53b825a98b0397d795cf228ca04b00a5b6e4927d5fbfc9378755",
	"targeted/1":  "230268d25da41967fc87d5dff27f7fc24ba364115973285e57b0b1512edfdd7a",
	"targeted/7":  "98ce5e3f48137e62c8f62bf009e3b45ac85147e55a57455151ec96b6db42b02b",
	"targeted/42": "b3f27faf5fc23037047824abf69f8c038bb72d7508085dd3e7ae9308a99c1a47",
}

// resultDigest hashes a Result field by field.
func resultDigest(r Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, f := range r.Flows {
		put(int64(f.Flow.Sender))
		put(int64(f.Flow.Receiver))
		put(int64(f.DeliveredAppBytes))
		put(int64(f.Transfers))
		put(int64(f.Failures))
		a := f.Air
		for _, v := range []int{a.DataAirBytes, a.RetxAirBytes, a.FeedbackAirBytes, a.Rounds, a.FullResends, a.Misses} {
			put(int64(v))
		}
	}
	put(int64(math.Float64bits(r.DurationSec)))
	put(r.BusyChips)
	put(r.TxChips)
	put(int64(r.JamFrames))
	put(r.JamChips)
	put(int64(r.Domains))
	return hex.EncodeToString(h.Sum(nil))
}

// TestNetsimJamGoldenDigests pins every registered strategy's closed-loop
// behaviour: its draw order, burst size and channel observations all reach
// the Result, so any change to one shows up as a digest mismatch. On
// mismatch the test logs the full table to paste back after a deliberate
// timeline change.
func TestNetsimJamGoldenDigests(t *testing.T) {
	tb := bed()
	var table []string
	for _, name := range jam.Names() {
		sc, err := scenario.ByName("jam-" + name)
		if err != nil {
			t.Fatal(err)
		}
		node := sc.Node(0, 1)
		for _, seed := range []uint64{1, 7, 42} {
			cfg := baseConfig(tb)
			cfg.Seed = seed
			cfg.Flows = append(cfg.Flows, bestFlow(tb, 1))
			cfg.Jammers = []JammerNode{{Sender: 9, Strategy: node.Jam, BurstBytes: node.BurstBytes}}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", name, seed)
			got := resultDigest(res)
			table = append(table, fmt.Sprintf("\t%q: %q,", key, got))
			if want, ok := netsimJamGolden[key]; !ok {
				t.Errorf("%s: no golden digest recorded", key)
			} else if got != want {
				t.Errorf("%s: result digest %s, want %s (%+v)", key, got, want, res)
			}
		}
	}
	if len(table) != len(netsimJamGolden) {
		t.Errorf("%d strategy/seed pairs, %d golden digests", len(table), len(netsimJamGolden))
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", strings.Join(table, "\n"))
	}
}

func mustStrategy(t *testing.T, name string) jam.Strategy {
	t.Helper()
	s, err := jam.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// twoClusterTopo builds two audibility-isolated clusters, each with a
// jammer (j*), a sender (s*) and a receiver (r*), with pinned link budgets
// so the shape does not depend on the shadowing draw. It yields two
// interference domains — the sharding that worker invariance must not leak
// through.
func twoClusterTopo(t *testing.T) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder(radio.DefaultParams(), 3)
	for i, x0 := range []float64{0, 5000} {
		names := [3]string{"j", "s", "r"}
		for k, n := range names {
			b.Node(n+string(rune('a'+i)), x0+float64(k)*20, 0)
		}
	}
	for _, c := range []string{"a", "b"} {
		b.LinkDBm("s"+c, "r"+c, -60)
		b.LinkDBm("j"+c, "s"+c, -62)
		b.LinkDBm("j"+c, "r"+c, -66)
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestNetsimJamWorkerInvariance runs every registered strategy as jammers in
// a two-domain deployment under the merged single queue and under 1 and 4
// workers, on two channels, and requires bit-identical Results. This is the
// proof that strategy observations — per-channel busy power and the active
// transmission view, which in a merged queue come from a differently-shaped
// active heap — are canonicalized before the adversary sees them.
func TestNetsimJamWorkerInvariance(t *testing.T) {
	tp := twoClusterTopo(t)
	for _, name := range jam.Names() {
		base := Config{
			Topo:         tp,
			Flows:        []Flow{{Sender: 1, Receiver: 2}, {Sender: 4, Receiver: 5}},
			PacketBytes:  200,
			DurationSec:  0.25,
			CarrierSense: true,
			Seed:         11,
			NumChannels:  2,
			Jammers: []JammerNode{
				{Sender: 0, Strategy: mustStrategy(t, name), BurstBytes: 48},
				{Sender: 3, Strategy: mustStrategy(t, name), BurstBytes: 48},
			},
		}
		run := func(workers int, single bool) Result {
			cfg := base
			cfg.Workers = workers
			cfg.SingleQueue = single
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		ref := run(1, true)
		if ref.Domains < 2 {
			t.Fatalf("%s: expected >= 2 interference domains, got %d", name, ref.Domains)
		}
		for _, workers := range []int{1, 4} {
			if got := run(workers, false); !reflect.DeepEqual(ref, got) {
				t.Errorf("%s: %d-worker sharded result diverges from single queue:\nsingle  %+v\nsharded %+v",
					name, workers, ref, got)
			}
		}
	}
}

// fixedChannelJam is a test strategy: fire every period on one fixed channel.
type fixedChannelJam struct {
	period int64
	ch     uint8
}

func (f fixedChannelJam) Name() string { return "fixed-channel" }

func (f fixedChannelJam) Emitter(p jam.Params, rng *stats.RNG) jam.Emitter {
	return &fixedChannelEmitter{period: f.period, ch: f.ch}
}

type fixedChannelEmitter struct {
	next, period int64
	ch           uint8
}

func (e *fixedChannelEmitter) NextPoll() int64 {
	t := e.next
	e.next += e.period
	return t
}

func (e *fixedChannelEmitter) Poll(jam.Observation) jam.Burst {
	return jam.Burst{Fire: true, Channel: e.ch}
}

// oneBigBurst is a test strategy: fire every period, overriding the burst
// size to big on the first burst only.
type oneBigBurst struct {
	period int64
	big    int
}

func (o oneBigBurst) Name() string { return "one-big-burst" }

func (o oneBigBurst) Emitter(jam.Params, *stats.RNG) jam.Emitter {
	return &oneBigBurstEmitter{spec: o}
}

type oneBigBurstEmitter struct {
	spec  oneBigBurst
	next  int64
	fired bool
}

func (e *oneBigBurstEmitter) NextPoll() int64 {
	t := e.next
	e.next += e.spec.period
	return t
}

func (e *oneBigBurstEmitter) Poll(jam.Observation) jam.Burst {
	if e.fired {
		return jam.Burst{Fire: true}
	}
	e.fired = true
	return jam.Burst{Fire: true, Bytes: e.spec.big}
}

// TestJamBurstOverrideIsPerBurst: a burst's Bytes sizes that burst only;
// later bursts that leave it 0 go back to the jammer's BurstBytes.
func TestJamBurstOverrideIsPerBurst(t *testing.T) {
	cfg := baseConfig(bed())
	cfg.Jammers = []JammerNode{{Sender: 9, Strategy: oneBigBurst{period: 40_000, big: 200}, BurstBytes: 40}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	air := func(n int) int64 { return int64(frame.New(0xffff, 9, 0, make([]byte, n)).AirChips().Len()) }
	if res.JamFrames < 2 {
		t.Fatalf("%d jam frames, want several", res.JamFrames)
	}
	if want := air(200) + int64(res.JamFrames-1)*air(40); res.JamChips != want {
		t.Errorf("%d jam frames took %d chips, want %d (one 200-byte burst, the rest 40 bytes)",
			res.JamFrames, res.JamChips, want)
	}
}

// TestChannelsAreOrthogonal pins the channel model: a jammer saturating
// channel 1 leaves flows on channel 0 with exactly the accounting of a
// jammer-free run, while the same jammer on channel 0 degrades them.
func TestChannelsAreOrthogonal(t *testing.T) {
	tb := bed()
	mk := func(jammers []JammerNode) Result {
		cfg := baseConfig(tb)
		cfg.NumChannels = 2
		cfg.LinkLayer = "packet-crc-arq"
		cfg.Jammers = jammers
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	jamOn := func(ch uint8) []JammerNode {
		return []JammerNode{{Sender: 9,
			Strategy:   fixedChannelJam{period: 12_000, ch: ch},
			BurstBytes: 120,
		}}
	}
	clean := mk(nil)
	offCh := mk(jamOn(1))
	onCh := mk(jamOn(0))
	if offCh.JamFrames == 0 || onCh.JamFrames == 0 {
		t.Fatal("fixed-channel jammer never fired")
	}
	if !reflect.DeepEqual(clean.Flows, offCh.Flows) {
		t.Errorf("jamming the other channel perturbed the flows:\nclean %+v\njam   %+v",
			clean.Flows, offCh.Flows)
	}
	if onCh.Flows[0].DeliveredAppBytes > clean.Flows[0].DeliveredAppBytes {
		t.Errorf("co-channel jamming delivered more (%d) than clean (%d)",
			onCh.Flows[0].DeliveredAppBytes, clean.Flows[0].DeliveredAppBytes)
	}
	if onCh.Flows[0].Air.RetxAirBytes+onCh.Flows[0].Air.FullResends <=
		clean.Flows[0].Air.RetxAirBytes+clean.Flows[0].Air.FullResends {
		t.Errorf("co-channel jamming caused no extra recovery work")
	}
}

// TestPowerDeltaWidensAudibility pins PowerDeltaDBm's mechanism: boosting a
// jammer's link budget grows the set of nodes that hear it (and only its
// outgoing rows), which is how a stronger adversary reaches more victims.
func TestPowerDeltaWidensAudibility(t *testing.T) {
	tb := bed()
	build := func(delta float64) *runState {
		cfg := baseConfig(tb)
		cfg.Jammers = []JammerNode{{Sender: 9,
			Strategy:      mustStrategy(t, "periodic"),
			PowerDeltaDBm: delta,
		}}
		top, flows, jams, err := normalize(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return newRunState(cfg, top, flows, jams)
	}
	plain := build(0)
	boosted := build(25)
	jn := 9
	if len(boosted.heardBy[jn]) < len(plain.heardBy[jn]) {
		t.Errorf("+25 dB jammer heard by %d nodes, plain by %d — boost shrank audibility",
			len(boosted.heardBy[jn]), len(plain.heardBy[jn]))
	}
	// Every node that heard the plain jammer hears the boosted one ~316x
	// (25 dB) louder.
	want := radio.DBmToMW(25) / radio.DBmToMW(0)
	for i, v := range plain.heardBy[jn] {
		if boosted.heardBy[jn][i] != v {
			t.Fatalf("boosted audibility list reordered at %d", i)
		}
		ratio := boosted.heardByPw[jn][i] / plain.heardByPw[jn][i]
		if ratio < want*0.99 || ratio > want*1.01 {
			t.Fatalf("node %d hears the boosted jammer %.1fx louder, want ~%.1fx", v, ratio, want)
		}
	}
	for u := 0; u < plain.nn; u++ {
		if u == jn {
			continue
		}
		if !reflect.DeepEqual(plain.heardBy[u], boosted.heardBy[u]) ||
			!reflect.DeepEqual(plain.heardByPw[u], boosted.heardByPw[u]) {
			t.Fatalf("node %d's outgoing audibility changed with a jammer-only delta", u)
		}
	}
}

// TestJamDecisionZeroAllocs pins the strategy hot path's cost contract: with
// metrics disabled, building the observation and polling the emitter
// allocates nothing per decision.
func TestJamDecisionZeroAllocs(t *testing.T) {
	prev := obs.Default()
	obs.SetDefault(nil)
	defer obs.SetDefault(prev)

	tb := bed()
	cfg := baseConfig(tb)
	cfg.NumChannels = 3
	cfg.Jammers = []JammerNode{{Sender: 9,
		Strategy: mustStrategy(t, "learner"),
	}}
	top, flows, jams, err := normalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := newRunState(cfg, top, flows, jams)
	s := newShard(rs, 0)
	s.addJam(jams[0])
	jp := s.jams[0]
	// Put real transmissions on the air so the observation has content.
	f := frame.New(1, 0, 0, make([]byte, 120))
	s.commit(flows[0].src, 0, 10, f.AirChips())
	s.commit(flows[0].dst, 1, 20, f.AirChips())
	pollAt := jp.em.NextPoll()
	allocs := testing.AllocsPerRun(200, func() {
		o := s.observe(jp.spec.node, pollAt)
		jp.em.Poll(o)
	})
	if allocs != 0 {
		t.Errorf("jam decision allocates %v per poll, want 0", allocs)
	}
}

// TestJammerValidation covers the jammer configuration errors, next to a
// valid strategy jammer that fires.
func TestJammerValidation(t *testing.T) {
	tb := bed()
	ok := baseConfig(tb)
	ok.Jammers = []JammerNode{{Sender: 9, Strategy: fixedChannelJam{period: 10_000, ch: 0}, BurstBytes: 60}}
	res, err := Run(ok)
	if err != nil {
		t.Fatalf("strategy jammer rejected: %v", err)
	}
	if res.JamFrames == 0 {
		t.Error("strategy jammer never fired")
	}
	cases := map[string]Config{
		"no strategy": func() Config {
			c := ok
			c.Jammers = []JammerNode{{Sender: 9}}
			return c
		}(),
		"too many channels": func() Config { c := ok; c.NumChannels = 300; return c }(),
		"negative channels": func() Config { c := ok; c.NumChannels = -1; return c }(),
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
