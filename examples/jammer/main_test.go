package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"ppr"
)

// quickSim runs one small simulation of sc over the shared testbed and
// returns its full transmission schedule and receive outcomes.
func quickSim(t *testing.T, sc ppr.Scenario) ([]*ppr.Transmission, []ppr.Outcome) {
	t.Helper()
	cfg := ppr.SimConfig{
		Testbed:      ppr.NewTestbed(ppr.DefaultChannelParams(), 1),
		OfferedBps:   6_900,
		PacketBytes:  100,
		DurationSec:  0.3,
		CarrierSense: true,
		Seed:         1,
		Scenario:     sc,
	}
	return ppr.RunSim(cfg, []ppr.SimVariant{{Name: "postamble", UsePostamble: true}})
}

// legacyGolden holds the SHA-256 of quickSim's schedule and receive
// outcomes under the legacy jammer-model constructions this example ran
// before it moved to the jam strategy registry, recorded at commit c5bca66.
var legacyGolden = map[string]string{
	"periodic": "92a7e6dd88194e535fa2ce45af744863a4da67d2011ab4bbfabc1dbde3aecd6f",
	"reactive": "075eb18afd67e5696f2cdeb6455f5b80c057066c9bbb902d36664bc786a5bee6",
}

// simDigest hashes a schedule and its receive outcomes field by field.
func simDigest(txs []*ppr.Transmission, outs []ppr.Outcome) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	bit := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	for _, tx := range txs {
		hdr := tx.Frame.Hdr
		put(int64(tx.ID))
		put(int64(tx.Src))
		put(tx.StartChip)
		put(int64(hdr.Length)<<48 | int64(hdr.Dst)<<32 | int64(hdr.Src)<<16 | int64(hdr.Seq))
		h.Write(tx.Frame.Payload)
		h.Write(tx.TruthSyms)
	}
	for _, o := range outs {
		put(int64(o.TxID))
		put(int64(o.Src))
		put(int64(o.Receiver))
		put(int64(o.Variant))
		put(bit(o.Acquired))
		put(int64(o.Kind))
		put(bit(o.CRCOK))
		put(int64(o.MissingPrefix))
		put(int64(len(o.Decisions)))
		for _, d := range o.Decisions {
			put(int64(d.Symbol))
			put(int64(math.Float64bits(d.Hint)))
		}
		h.Write(o.TruthSyms)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRegistryJammersMatchLegacy pins the port: the registry-built jam
// scenarios the example now runs drive the simulation bit-identically to
// the legacy jammer-model constructions the example used before, whose
// output is frozen in legacyGolden.
func TestRegistryJammersMatchLegacy(t *testing.T) {
	for _, strategy := range []string{"periodic", "reactive"} {
		t.Run(strategy, func(t *testing.T) {
			reg, err := ppr.ScenarioByName("jam-" + strategy)
			if err != nil {
				t.Fatalf("ScenarioByName(jam-%s): %v", strategy, err)
			}
			txs, outs := quickSim(t, reg)
			if got, want := simDigest(txs, outs), legacyGolden[strategy]; got != want {
				t.Errorf("registry scenario jam-%s: %d transmissions, %d outcomes, digest %s; legacy digest %s",
					strategy, len(txs), len(outs), got, want)
			}
		})
	}
}

// TestExportedStrategyPathMatchesRegistry checks the example's other API
// surface: building the overlay by hand through ppr.JamStrategyByName +
// ppr.WithJamStrategyScenario matches the prebuilt "jam-<name>" scenario.
func TestExportedStrategyPathMatchesRegistry(t *testing.T) {
	strat, err := ppr.JamStrategyByName("periodic")
	if err != nil {
		t.Fatal(err)
	}
	manual := ppr.WithJamStrategyScenario("jam-periodic", ppr.PoissonScenario(), strat, 0)
	reg, err := ppr.ScenarioByName("jam-periodic")
	if err != nil {
		t.Fatal(err)
	}
	wantTxs, wantOuts := quickSim(t, reg)
	gotTxs, gotOuts := quickSim(t, manual)
	if !reflect.DeepEqual(wantTxs, gotTxs) || !reflect.DeepEqual(wantOuts, gotOuts) {
		t.Error("WithJamStrategyScenario(periodic) differs from the registered jam-periodic scenario")
	}
}

// TestReportRuns runs the example end to end at a small operating point and
// checks the table shape: a header plus one row per scenario.
func TestReportRuns(t *testing.T) {
	r := jamReport{
		LoadKbps:    6.9,
		DurationSec: 0.3,
		PacketBytes: 100,
		Seed:        1,
		Strategies:  []string{"periodic", "reactive"},
	}
	var buf bytes.Buffer
	if err := r.run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scenario", "clean (poisson)", "periodic jammer", "reactive jammer", "PPR/CRC"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	r2 := jamReport{Strategies: []string{"nonesuch"}}
	if r2.run(&buf) == nil {
		t.Error("unknown strategy name did not error")
	}
}
