package leakcheck

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNoLeakPasses: a test that starts and stops its goroutines is clean.
func TestNoLeakPasses(t *testing.T) {
	snap := Take()
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() { <-stop; close(done) }()
	close(stop)
	<-done
	if leaked := snap.Settle(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("false positive: %d goroutines reported leaked", len(leaked))
	}
}

// TestLeakDetected: a goroutine that outlives the test is caught, with its
// stack in the report.
func TestLeakDetected(t *testing.T) {
	snap := Take()
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() { close(started); <-stop }() // deliberately still alive at check time
	<-started
	leaked := snap.Settle(50 * time.Millisecond)
	if len(leaked) != 1 || leaked[0].count != 1 {
		t.Fatalf("leaked = %+v, want one goroutine", leaked)
	}
	if !strings.Contains(leaked[0].stack, "leakcheck.TestLeakDetected") {
		t.Fatalf("leak report missing creator stack:\n%s", leaked[0].stack)
	}
}

// TestGrandchildAttributed: a goroutine spawned by a goroutine the test
// spawned inherits the label, so it is attributed to the test too.
func TestGrandchildAttributed(t *testing.T) {
	snap := Take()
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() {
		go func() { close(started); <-stop }()
	}()
	<-started
	if leaked := snap.Settle(50 * time.Millisecond); len(leaked) != 1 {
		t.Fatalf("leaked = %+v, want the grandchild", leaked)
	}
}

// TestSettleWaitsForWindDown: goroutines already on their way out are not
// reported.
func TestSettleWaitsForWindDown(t *testing.T) {
	snap := Take()
	go func() { time.Sleep(100 * time.Millisecond) }()
	if leaked := snap.Settle(2 * time.Second); len(leaked) > 0 {
		t.Fatalf("winding-down goroutine reported as leak")
	}
}

// TestIgnoredFilters: harness goroutines never count as leaks, even when
// they carry the test's label. A parallel subtest started after Take
// inherits the label and stays parked in (*T).Parallel until this test
// returns, so it is in the labelled profile when the check runs.
func TestIgnoredFilters(t *testing.T) {
	snap := Take()
	t.Run("parked", func(t *testing.T) { t.Parallel() })
	parked := false
	for _, g := range labeled(snap.pair) {
		parked = parked || strings.Contains(g.stack, "testing.(*T).Parallel")
	}
	if !parked {
		t.Fatal("parked parallel subtest missing from the labelled profile")
	}
	if leaked := snap.Settle(50 * time.Millisecond); len(leaked) > 0 {
		t.Fatalf("parked parallel subtest reported as leak: %+v", leaked)
	}
}

// TestPreexistingGoroutinesNotCounted: goroutines alive before Take — the
// caller's own earlier spawns included — are not the snapshot's.
func TestPreexistingGoroutinesNotCounted(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	started := make(chan struct{})
	go func() { close(started); <-stop }()
	<-started
	snap := Take()
	if leaked := snap.Leaked(); len(leaked) > 0 {
		t.Fatalf("pre-existing goroutine reported as leak: %+v", leaked)
	}
}

// recorder is a testing.TB that records Errorf instead of failing, so a
// test can assert on what Check reports.
type recorder struct {
	testing.TB
	mu     sync.Mutex
	errors []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// TestParallelSiblingsIsolated: of two parallel subtests, only the one
// that leaks fails its check. The clean sibling takes its snapshot before
// the leaky one spawns and checks while the leaked goroutine is alive, so
// a process-wide snapshot diff would blame it too. When the subtests
// cannot run at once (-parallel 1), the handshakes time out and the test
// still holds, just without the overlap.
func TestParallelSiblingsIsolated(t *testing.T) {
	release := make(chan struct{})
	cleanTook := make(chan struct{})
	leakySpawned := make(chan struct{})
	wait := func(ch chan struct{}) {
		select {
		case <-ch:
		case <-time.After(2 * time.Second):
		}
	}
	t.Cleanup(func() { close(release) })

	t.Run("group", func(t *testing.T) {
		t.Run("clean", func(t *testing.T) {
			t.Parallel()
			rec := &recorder{TB: t}
			check := checkWithin(rec, 200*time.Millisecond)
			close(cleanTook)
			wait(leakySpawned)
			done := make(chan struct{})
			go func() { close(done) }()
			<-done
			check()
			if len(rec.errors) != 0 {
				t.Errorf("clean sibling failed its check:\n%s", strings.Join(rec.errors, "\n"))
			}
		})
		t.Run("leaky", func(t *testing.T) {
			t.Parallel()
			wait(cleanTook)
			rec := &recorder{TB: t}
			check := checkWithin(rec, 200*time.Millisecond)
			started := make(chan struct{})
			go func() { close(started); <-release }()
			<-started
			close(leakySpawned)
			check()
			if len(rec.errors) != 1 || !strings.Contains(rec.errors[0], "leaked 1 goroutine(s)") ||
				!strings.Contains(rec.errors[0], "TestParallelSiblingsIsolated") {
				t.Errorf("leaky sibling: got reports %q, want one naming its goroutine", rec.errors)
			}
		})
	})
}
