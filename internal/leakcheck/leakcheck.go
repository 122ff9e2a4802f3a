// Package leakcheck is the shared goroutine-leak guard for tests of the
// long-running machinery (linkserv sessions and servers, netsim's flow
// coroutines). At test start it tags the test goroutine with a unique
// runtime/pprof label, which every goroutine the test spawns — directly or
// through goroutines it spawned — inherits. After a settling deadline it
// fails the test if goroutines carrying that label are still alive,
// filtered by stack, so runtime and test-harness goroutines never count.
// Because only the test's own descendants carry its label, parallel
// sibling tests never see each other's goroutines.
//
// The label is inherited only along go statements, so two kinds of
// goroutine escape the check: those the runtime starts for timers
// (time.AfterFunc callbacks run unlabelled), and those started by
// goroutines that were alive before the check began. Code that leaves
// work on either path needs its own targeted test.
//
// Usage:
//
//	func TestServer(t *testing.T) {
//		defer leakcheck.Check(t)()
//		...
//	}
//
// or equivalently leakcheck.CheckCleanup(t) to hook t.Cleanup.
package leakcheck

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ignoredSubstrings mark goroutines that belong to the runtime, the test
// harness, or process-lifetime singletons: their appearance is not a leak.
var ignoredSubstrings = []string{
	"testing.RunTests",
	"testing.(*T).Run",
	"testing.(*M).",
	"testing.runFuzzing",
	"testing.tRunner.func",
	// Subtest goroutines, e.g. parallel subtests still parked in
	// (*T).Parallel when a deferred check runs. The debug=1 profile prints
	// no "created by testing.(*T).Run" line, so they are known by the
	// tRunner frame at the bottom of their stack.
	"testing.tRunner+",
	"runtime.goexit0",
	"runtime.MHeap_Scavenger",
	"runtime.gc",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime/pprof.readProfile",
	"runtime/trace.Start",
	"net/http.(*persistConn)", // keep-alive pool, process-lifetime
	"go.itab",
}

// labelKey is the pprof label key Take tags goroutines with.
const labelKey = "leakcheck"

// selfFrame marks the goroutine that is taking the profile: it carries the
// label but is the checker, not a leak.
const selfFrame = "ppr/internal/leakcheck.labeled+"

// goroutine is one record of the goroutine profile: count live goroutines
// sharing one stack and label set.
type goroutine struct {
	count int
	stack string
}

// labeled returns the goroutine-profile records whose label set contains
// the label pair, skipping the calling goroutine. The debug=1 profile is
// the one format that prints labels; it groups goroutines with identical
// stacks.
func labeled(pair string) []goroutine {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		panic(fmt.Sprintf("leakcheck: goroutine profile: %v", err))
	}
	// Records are blank-line separated; the first is the profile header.
	var out []goroutine
	for _, rec := range strings.Split(b.String(), "\n\n") {
		rec = strings.TrimSpace(rec)
		head, rest, _ := strings.Cut(rec, "\n")
		// "3 @ 0x... 0x..." then "# labels: {...}" when labels are set.
		n, _, ok := strings.Cut(head, " @ ")
		if !ok {
			continue
		}
		count, err := strconv.Atoi(n)
		if err != nil {
			continue
		}
		labels, stack, _ := strings.Cut(rest, "\n")
		if !strings.HasPrefix(labels, "# labels: {") || !strings.Contains(labels, pair) ||
			strings.Contains(stack, selfFrame) {
			continue
		}
		out = append(out, goroutine{count: count, stack: stack})
	}
	return out
}

// ignored reports whether the goroutine's stack marks it as harness or
// runtime machinery.
func ignored(g goroutine) bool {
	for _, s := range ignoredSubstrings {
		if strings.Contains(g.stack, s) {
			return true
		}
	}
	return false
}

// Snapshot identifies the goroutines spawned since Take by the goroutine
// that called it.
type Snapshot struct {
	// pair is the snapshot's label as the goroutine profile prints it.
	pair string
}

// labelSeq makes every Take's label unique.
var labelSeq atomic.Int64

// finalizerStarted guards startFinalizer, which Take runs once before the
// first profile.
var finalizerStarted sync.Once

// startFinalizer makes sure the runtime's finalizer goroutine has run. The
// runtime creates that goroutine lazily and only recognises it as the
// finalizer goroutine once it first runs. In between, Go 1.24's concurrent
// goroutine profile leaves it out of the goroutine count but still records
// it, and the slot it takes drops a live goroutine from the profile: under
// CPU contention this package's own tests saw their deliberate leaks
// vanish. Once one finalizer has run, the profile is complete for the rest
// of the process. The wait is bounded; a runtime that never runs the
// finalizer only keeps the old behaviour.
func startFinalizer() {
	ran := make(chan struct{})
	runtime.SetFinalizer(&struct{ p *byte }{}, func(any) { close(ran) })
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		runtime.GC()
		select {
		case <-ran:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// Take tags the calling goroutine with a fresh label — replacing any pprof
// labels it carried — so every goroutine it spawns from now on is
// attributed to the returned Snapshot.
func Take() Snapshot {
	finalizerStarted.Do(startFinalizer)
	id := strconv.FormatInt(labelSeq.Add(1), 10)
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(labelKey, id)))
	return Snapshot{pair: fmt.Sprintf("%q:%q", labelKey, id)}
}

// Leaked returns the stack-filtered goroutines alive now that carry the
// snapshot's label, other than the caller.
func (s Snapshot) Leaked() []goroutine {
	var out []goroutine
	for _, g := range labeled(s.pair) {
		if !ignored(g) {
			out = append(out, g)
		}
	}
	return out
}

// Settle polls until no leaked goroutines remain or the deadline passes,
// returning whatever is still alive. Goroutines legitimately winding down
// (closed connections, exiting workers) get time to finish.
func (s Snapshot) Settle(deadline time.Duration) []goroutine {
	end := time.Now().Add(deadline)
	for {
		leaked := s.Leaked()
		if len(leaked) == 0 || time.Now().After(end) {
			return leaked
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// DefaultSettle is how long Check waits for goroutines to wind down before
// declaring them leaked.
const DefaultSettle = 5 * time.Second

// Check snapshots now and returns a function that fails the test if
// goroutines spawned since survive the settling deadline. Use with defer:
//
//	defer leakcheck.Check(t)()
func Check(t testing.TB) func() {
	t.Helper()
	return checkWithin(t, DefaultSettle)
}

// checkWithin is Check with an explicit settling deadline.
func checkWithin(t testing.TB, settle time.Duration) func() {
	t.Helper()
	snap := Take()
	return func() {
		t.Helper()
		report(t, snap, settle)
	}
}

// CheckCleanup is Check wired through t.Cleanup, for tests whose teardown
// itself is registered via Cleanup (the check runs last-registered-first,
// so call CheckCleanup before registering teardowns that stop goroutines).
func CheckCleanup(t testing.TB) {
	t.Helper()
	snap := Take()
	t.Cleanup(func() { report(t, snap, DefaultSettle) })
}

func report(t testing.TB, snap Snapshot, settle time.Duration) {
	t.Helper()
	if leaked := snap.Settle(settle); len(leaked) > 0 {
		var b strings.Builder
		n := 0
		for _, g := range leaked {
			n += g.count
			fmt.Fprintf(&b, "%d goroutine(s):\n%s\n\n", g.count, g.stack)
		}
		t.Errorf("leaked %d goroutine(s):\n%s", n, b.String())
	}
}
