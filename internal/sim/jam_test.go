package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppr/internal/jam"
	"ppr/internal/radio"
	"ppr/internal/scenario"
	"ppr/internal/testbed"
)

// scheduleFingerprint reduces a schedule to its observable identity: who
// transmitted what, when.
type txFingerprint struct {
	Src     int
	Start   int64
	Dst     uint16
	Seq     uint16
	Payload string
}

func fingerprints(txs []*Transmission) []txFingerprint {
	out := make([]txFingerprint, len(txs))
	for i, tx := range txs {
		out[i] = txFingerprint{
			Src:     tx.Src,
			Start:   tx.StartChip,
			Dst:     tx.Frame.Hdr.Dst,
			Seq:     tx.Frame.Hdr.Seq,
			Payload: string(tx.Frame.Payload),
		}
	}
	return out
}

// scheduleGolden holds the SHA-256 of every registered scenario's schedule
// fingerprints (smallCfg at 6.9 kb/s with carrier sense), keyed
// "<scenario>/<seed>". Recorded at commit c5bca66, where periodic-jammer
// and reactive-jammer were also checked bit-identical to the arrival-model
// jammers they replaced; the digests now stand in for that reference.
var scheduleGolden = map[string]string{
	"bursty/1":           "8b9e36b8eba9e2bcedb81a89e8a47700ceb9e722146a5e11a760238292ed5678",
	"bursty/7":           "9cc674c0607dd84c2be52f9b00ee1fde6392b68129963997b9146999b22bc8f5",
	"bursty/42":          "b56860b799aaff25e50c70b8a4ee00a1dd1b44fb9e221c3b313e3449af8f0d03",
	"jam-duty/1":         "f74e81c8f98a207edb7c4661347c9cf5702c0aee484175189f3dff11f6bfa8ca",
	"jam-duty/7":         "3cf7f1fcf396f7eafcd82e220071e75bc4d1e2029d4f60754b005b9ae7a3b5a1",
	"jam-duty/42":        "f04613abf0e4aad20f3d9fbf189797c53316df68c534c5be1ac5b86a0fd3377a",
	"jam-learner/1":      "9c6239b7ad6a7426f66d3f221f51fe293da9c2af2ec29febc7b738b45c05857b",
	"jam-learner/7":      "a16e1f7d360f13f36c93b77ffd2549f4fe8628f9bde42a25d1762be925e69ecd",
	"jam-learner/42":     "aef257f908c46adf9b07edf0f5b901318529cb02b663c8d33a1a6ba124063762",
	"jam-markov/1":       "bfcfb562136c8f91a7d1fa17abf4721fbb9618c8c248a267d896cf8072800520",
	"jam-markov/7":       "337ce91f90a5181e3df004b06463011bc61aae1fe486f0d75dce82f68b7bcb1b",
	"jam-markov/42":      "866308334bff1741fb95641581eb7a71e54a8b8ee26f5be9285bdc2d2495a2cc",
	"jam-periodic/1":     "3300a53bd214b38fbbd82d18c1a5536c4b156be80a1aebac793b737d93884445",
	"jam-periodic/7":     "6ea9b98108795b3239f8b134be6554da5b487adf232e92f33457f59018090a2e",
	"jam-periodic/42":    "44ec357c1a7ee924e565466d114580971f6bcba5dae9c9524f9f7d7e42a72dc2",
	"jam-preamble/1":     "637c15b9123e72623c150efe6c2b8034b88afe49415be441db707e7028de0768",
	"jam-preamble/7":     "e2077780443df684dca87aeff046eae57c768ccb0708e854a3420c72d8a91373",
	"jam-preamble/42":    "b0b24b60ce368cfe11df9e89c3f8fe39381ae561c47ea61fcf3e2cad04ebbb31",
	"jam-reactive/1":     "82a27218adce96860f92cc8229a0910827d9aea21f9b1b45dd939d87dc759eec",
	"jam-reactive/7":     "35d8d6f8a76b41bdac6ecb09c57e4c6cf147b2d46a654cc485a3e092dc862db6",
	"jam-reactive/42":    "6ccb474089565b79678892df53f88828ba2aac44682b079c646476fcca8a06c2",
	"jam-sweep/1":        "4b4f80dff2a7f478d30bef697499506a73beeb8382f14dc096db5ea58076d301",
	"jam-sweep/7":        "36a2e42eec605cb80d9d4766520d66a02227502587d69096b710c0278fb58642",
	"jam-sweep/42":       "63d8f96f068e25598228e23bc49eb1090e8aa973365707daade70be0d3b18d11",
	"jam-targeted/1":     "f67af8b7d967aab6750be5935a69bdf774b79379572934d33d6cf3b5932b6056",
	"jam-targeted/7":     "7ce670c513d3bac7abe2c6a604ba1299379261361018ecf83aefc189407f4ce3",
	"jam-targeted/42":    "1e070a648742bc7f2af45d8f8dd88ffd6c27cdbdc013a8cf3832ade814b937e3",
	"periodic-jammer/1":  "3300a53bd214b38fbbd82d18c1a5536c4b156be80a1aebac793b737d93884445",
	"periodic-jammer/7":  "6ea9b98108795b3239f8b134be6554da5b487adf232e92f33457f59018090a2e",
	"periodic-jammer/42": "44ec357c1a7ee924e565466d114580971f6bcba5dae9c9524f9f7d7e42a72dc2",
	"poisson/1":          "ff4e6989ea785d40d1f6cd4d80515f9eb17a9407b5a6a27b45b0945c388c9f2c",
	"poisson/7":          "fa0baa7559c1af73428cec33ce07a4d6b32576176fdbdc4dd66476f56750733c",
	"poisson/42":         "cfe0983d2188ec45d9ae70bbb2b34a81e6affde306d032ea8084bcc6577b8b80",
	"reactive-jammer/1":  "82a27218adce96860f92cc8229a0910827d9aea21f9b1b45dd939d87dc759eec",
	"reactive-jammer/7":  "35d8d6f8a76b41bdac6ecb09c57e4c6cf147b2d46a654cc485a3e092dc862db6",
	"reactive-jammer/42": "6ccb474089565b79678892df53f88828ba2aac44682b079c646476fcca8a06c2",
}

// scheduleDigest hashes a schedule's fingerprints field by field.
func scheduleDigest(fps []txFingerprint) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, fp := range fps {
		put(int64(fp.Src))
		put(fp.Start)
		put(int64(fp.Dst))
		put(int64(fp.Seq))
		put(int64(len(fp.Payload)))
		h.Write([]byte(fp.Payload))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScheduleGoldenDigests pins every registered scenario's timeline:
// each jam strategy's draw order, burst size and channel observation feed
// the schedule, so any change to one shows up as a digest mismatch.
// Deliver depends only on (Testbed, Seed, txs), so schedule identity is
// trace identity. On mismatch the test logs the full table to paste back
// after a deliberate timeline change.
func TestScheduleGoldenDigests(t *testing.T) {
	var table []string
	for _, name := range scenario.Names() {
		sc, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7, 42} {
			cfg := smallCfg(6900, true, seed)
			cfg.Scenario = sc
			key := fmt.Sprintf("%s/%d", name, seed)
			got := scheduleDigest(fingerprints(Schedule(cfg)))
			table = append(table, fmt.Sprintf("\t%q: %q,", key, got))
			if want, ok := scheduleGolden[key]; !ok {
				t.Errorf("%s: no golden digest recorded", key)
			} else if got != want {
				t.Errorf("%s: schedule digest %s, want %s", key, got, want)
			}
		}
	}
	if len(table) != len(scheduleGolden) {
		t.Errorf("%d scenario/seed pairs, %d golden digests", len(table), len(scheduleGolden))
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", strings.Join(table, "\n"))
	}
}

// TestJamScenariosDeterministicAndWorkerInvariant runs every registered
// jam strategy as a scenario through the full open-loop engine twice —
// once sequentially, once on 3 workers — and requires bit-identical
// schedules and delivery traces.
func TestJamScenariosDeterministicAndWorkerInvariant(t *testing.T) {
	variants := []Variant{{Name: "pre"}, {Name: "prepost", UsePostamble: true}}
	for _, name := range jam.Names() {
		sc, err := scenario.ByName("jam-" + name)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) ([]txFingerprint, []Outcome) {
			cfg := Config{
				Testbed:      testbed.New(radio.DefaultParams(), 7),
				OfferedBps:   12_000,
				PacketBytes:  200,
				DurationSec:  0.5,
				CarrierSense: true,
				Seed:         11,
				Scenario:     sc,
				Workers:      workers,
			}
			txs, outs := Run(cfg, variants)
			return fingerprints(txs), outs
		}
		fp1, out1 := run(1)
		fp3, out3 := run(3)
		if !reflect.DeepEqual(fp1, fp3) {
			t.Fatalf("jam-%s: schedule differs across worker counts", name)
		}
		if !reflect.DeepEqual(out1, out3) {
			t.Fatalf("jam-%s: delivery trace differs across worker counts", name)
		}
		if len(fp1) == 0 {
			t.Fatalf("jam-%s: empty schedule", name)
		}
	}
}

// TestJamStrategyActuallyJams sanity-checks that strategy-driven bursts
// appear in the schedule: sender 0 transmits under every jam scenario
// whose strategy can fire against the stock Poisson victims.
func TestJamStrategyActuallyJams(t *testing.T) {
	for _, name := range []string{"periodic", "sweep", "preamble", "duty"} {
		sc, err := scenario.ByName("jam-" + name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallCfg(12_000, true, 5)
		cfg.Scenario = sc
		jams := 0
		for _, tx := range Schedule(cfg) {
			if tx.Src == 0 {
				jams++
			}
		}
		if jams == 0 {
			t.Errorf("jam-%s: sender 0 never jammed", name)
		}
	}
}
