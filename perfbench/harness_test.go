package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ppr/internal/experiments"
	"ppr/internal/frame"
	"ppr/internal/linkserv"
	"ppr/internal/stats"
)

func TestPercentileReportsSampleCount(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1}} {
		got, n := percentile(xs, tc.q)
		if got != tc.want || n != len(xs) {
			t.Errorf("percentile(q=%v) = %v over %d samples, want %v over %d", tc.q, got, n, tc.want, len(xs))
		}
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile(empty) = %v over %d, want 0 over 0", got, n)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestDigestStability(t *testing.T) {
	res := func() experiments.Fig17Result {
		return experiments.Fig17Result{
			Pairs: [][2]int{{1, 2}, {3, 4}},
			Curves: []experiments.Fig17Curve{
				{Layer: "pp-arq", PairKbps: []float64{240.5, 199.25}, Transfers: 10, Failures: 1},
				{Layer: "packet-crc-arq", PairKbps: []float64{170, 0.1}, Transfers: 8},
			},
		}
	}
	a, b := digestFig17(res()), digestFig17(res())
	if a != b {
		t.Fatalf("equal results digest differently: %s vs %s", a, b)
	}
	r := res()
	r.Curves[1].PairKbps[1] = 0.1 + 1e-15 // one float bit apart
	if digestFig17(r) == a {
		t.Error("a one-ulp throughput change left the digest unchanged")
	}
	r = res()
	r.Curves[0].Failures++
	if digestFig17(r) == a {
		t.Error("a failure-count change left the digest unchanged")
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.ok()
	tl.add(errors.New("transfer: gave up"))
	tl.check(true, "unused")
	tl.check(false, "digest %d differs", 7)
	if a, f := tl.counts(); a != 4 || f != 2 {
		t.Fatalf("counts = %d attempted, %d failed; want 4, 2", a, f)
	}
	if got := tl.failRatio(); got != 0.5 {
		t.Errorf("failRatio = %v, want 0.5", got)
	}
	if len(tl.reasons) != 2 || tl.reasons[1] != "digest 7 differs" {
		t.Errorf("reasons = %q", tl.reasons)
	}

	// Concurrent flows record into one tally.
	var shared tally
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if i%10 == 0 {
					shared.add(errors.New("refused"))
				} else {
					shared.ok()
				}
			}
		}()
	}
	wg.Wait()
	if a, f := shared.counts(); a != 800 || f != 80 {
		t.Errorf("concurrent counts = %d, %d; want 800, 80", a, f)
	}

	rep := newReport()
	rep.ops = &tl
	if res := rep.result(endToEnd); res.Correct || res.Attempted != 4 || res.Failed != 2 {
		t.Errorf("result = %+v, want incorrect with 4 attempted and 2 failed", res)
	}
	if res := newReport().result(endToEnd); res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Errorf("a run that attempted nothing reads %+v, want one failed attempt", res)
	}
}

func TestOpenLoopStallDelaysLaterFlows(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	samples := runOpenLoop(due, 1, func(i int) error {
		if i == 2 {
			time.Sleep(stall)
		}
		return nil
	})
	// Flow 3 was due 1 ms after the stalled flow started; with one worker
	// it waited out the stall, and its latency counts that wait.
	if got := samples[3].latency(); got < stall-5*time.Millisecond {
		t.Errorf("flow after the stall: latency %v, want at least ~%v", got, stall)
	}
	if got := samples[3].late(); got < stall-5*time.Millisecond {
		t.Errorf("generator lateness after the stall = %v, want at least ~%v", got, stall)
	}
	// Every later flow was issued late, so each latency exceeds its own
	// (near-zero) service time by the remaining backlog.
	for i := 3; i < len(samples); i++ {
		if samples[i].latency() < samples[i].end-samples[i].start {
			t.Errorf("flow %d: latency %v shorter than its service time", i, samples[i].latency())
		}
	}
	if samples[0].latency() > stall/2 {
		t.Errorf("flow before the stall took %v", samples[0].latency())
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(stats.NewRNG(3), 1000, 500)
	b := poissonSchedule(stats.NewRNG(3), 1000, 500)
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("schedule not seeded or not monotone at %d", i)
		}
	}
	// 500 arrivals at 1000/s span about half a second.
	if span := a[len(a)-1]; span < 350*time.Millisecond || span > 650*time.Millisecond {
		t.Errorf("500 arrivals at 1000/s span %v", span)
	}
}

func TestDamageStaysInPayload(t *testing.T) {
	clean := frame.New(1, 2, 0, make([]byte, pprdPayloadBytes)).AirChips()
	lo := (frame.SyncBytes + frame.HeaderBytes) * frame.ChipsPerByte
	hi := lo + pprdPayloadBytes*frame.ChipsPerByte
	damaged := 0
	for flow := uint64(0); flow < 200; flow++ {
		chips := clean.Clone()
		damage(stats.NewRNG(9).Derive(0, flow), chips)
		again := clean.Clone()
		damage(stats.NewRNG(9).Derive(0, flow), again)
		if !bytes.Equal(chips.Bytes(), again.Bytes()) {
			t.Fatalf("flow %d: damage is not a function of the seed and flow", flow)
		}
		changed := false
		for i := 0; i < chips.Len(); i++ {
			if chips.Bit(i) != clean.Bit(i) {
				changed = true
				if i < lo || i >= hi {
					t.Fatalf("flow %d: chip %d outside the payload [%d, %d) flipped", flow, i, lo, hi)
				}
			}
		}
		if changed {
			damaged++
		}
	}
	if share := float64(damaged) / 200; share < pprdImpairShare/2 || share > pprdImpairShare*2 {
		t.Errorf("damaged share %v, want about %v", share, pprdImpairShare)
	}
}

func TestImpairerDamagesOnlyTheDataFrame(t *testing.T) {
	clean := frame.New(1, 2, 0, make([]byte, pprdPayloadBytes)).AirChips()
	m := &impairer{seed: 9}
	damages := func(flow uint32) bool {
		chips := clean.Clone()
		m.impair(linkserv.DirForward, flow, chips)
		return !bytes.Equal(chips.Bytes(), clean.Bytes())
	}
	hit := 0
	for flow := uint32(1); flow < 4*pprdSeenSlots; flow++ {
		if !damages(flow) {
			continue
		}
		hit++
		if damages(flow) {
			t.Fatalf("flow %d: a later forward frame was damaged too", flow)
		}
	}
	if hit == 0 {
		t.Fatal("no flow was damaged")
	}
	if got := m.calls.Load(); got != int64(4*pprdSeenSlots-1+hit) {
		t.Errorf("%d impair calls counted, want %d", got, 4*pprdSeenSlots-1+hit)
	}
}

func TestRepeatSetupReleasesAllButTheLast(t *testing.T) {
	built, released := 0, 0
	inst, secs, err := repeatSetup(func() (int, func(), error) {
		built++
		return built, func() { released++ }, nil
	})
	if err != nil || secs < 0 {
		t.Fatalf("repeatSetup: %v, %v s", err, secs)
	}
	if built < setupMinRepeats || built > setupMaxRepeats || released != built-1 || inst != built {
		t.Errorf("built %d, released %d, kept instance %d", built, released, inst)
	}
}

func TestPprdLoopbackSmoke(t *testing.T) {
	rep, err := runPprd(runConfig{seed: 1, budget: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if a, f := rep.ops.counts(); a == 0 || f != 0 {
		t.Fatalf("%d flows attempted, %d failed: %q", a, f, rep.ops.reasons)
	}
	for _, m := range []string{"flows_per_s", "p50_ms", "p90_ms", "run_s", "setup_s"} {
		if rep.metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, rep.metrics[m])
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "trace-high", "--seconds", "0"},
		{"--workload", "trace-high", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with %q on stdout; want 2 and nothing", args, code, out.String())
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// this program reports in step, and every per-layer metric documented.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v here", i, m, c)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayer))
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range spec.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v here", i, m, c)
		}
		if !strings.Contains(string(readme), "`"+c.name+"`") {
			t.Errorf("per-layer metric %s is not documented in README.md", c.name)
		}
	}
}
