package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"syscall"
	"time"

	"ppr/internal/stats"
)

// percentile returns the q-quantile (nearest rank) of xs together with the
// number of samples it was taken over, so every reported timing carries its
// sample count. An empty sample set yields (0, 0).
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	return stats.Quantile(xs, q), len(xs)
}

// median is percentile(xs, 0.5) without the count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// digest accumulates a canonical SHA-256 over a workload's result values.
// Floats are hashed by their IEEE-754 bits, so two results digest equal
// exactly when they are bit-identical.
type digest struct {
	buf [8]byte
	h   hash.Hash
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) int(v int)      { d.u64(uint64(v)) }
func (d *digest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)   { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digest) bool(b bool)    { d.int(boolInt(b)) }
func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tally counts operations attempted and failed, keeping the first few
// failure reasons for the report. Safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

const maxReasons = 8

// ok records one operation that passed every check.
func (t *tally) ok() { t.add(nil) }

// add records one operation; a non-nil err counts it as failed.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, err.Error())
	}
}

// check records one operation that failed unless cond holds.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok()
		return
	}
	t.add(fmt.Errorf(format, args...))
}

// counts returns a consistent snapshot of the counters.
func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// failRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) failRatio() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timeIt runs fn and returns its wall time in seconds.
func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// A workload builds its set-up at least setupMinRepeats times, and again
// until setupMinSeconds have passed or it has done so setupMaxRepeats
// times; setup_s is the median. A set-up of a few milliseconds thus gets
// enough samples for its median to hold still.
const (
	setupMinRepeats = 3
	setupMaxRepeats = 25
	setupMinSeconds = 1.0
)

// repeatSetup runs build as set out above, keeping only the last instance:
// every earlier one is torn down by its release func. It returns the median
// set-up time in seconds.
func repeatSetup[T any](build func() (T, func(), error)) (T, float64, error) {
	var (
		inst    T
		release func()
		times   []float64
	)
	start := time.Now()
	for len(times) < setupMinRepeats ||
		(len(times) < setupMaxRepeats && time.Since(start).Seconds() < setupMinSeconds) {
		if release != nil {
			release()
		}
		var err error
		t0 := time.Now()
		inst, release, err = build()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return inst, 0, err
		}
	}
	return inst, median(times), nil
}

// repeatFor calls rep until budget has elapsed and returns the seconds
// each call reports as its measured time, so a repetition's result checks
// stay outside its timing. It calls rep at least once, and starts another
// call only if one more of median length still fits in the budget.
func repeatFor(budget time.Duration, rep func() float64) []float64 {
	start := time.Now()
	var times []float64
	for len(times) == 0 || time.Since(start).Seconds()+median(times) <= budget.Seconds() {
		times = append(times, rep())
	}
	return times
}

// batchMetrics turns a batch workload's repetition times into the
// end-to-end metrics. On a batch workload one repetition is one operation,
// so flows_per_s is the completion rate of the median repetition — as on
// pprd-loopback, where it is the median over segments.
func batchMetrics(reps []float64) map[string]float64 {
	return map[string]float64{
		"run_s":       median(reps),
		"flows_per_s": 1 / median(reps),
	}
}

// openSample is one open-loop operation's timing relative to the start of
// the schedule: when it was due, when the generator handed it to a worker,
// and when it finished.
type openSample struct {
	due, start, end time.Duration
	err             error
}

// latency is measured from the due time, so time an operation spent
// waiting behind a stalled predecessor counts against it.
func (s openSample) latency() time.Duration { return s.end - s.due }

// late is how far behind its schedule the generator issued the operation.
func (s openSample) late() time.Duration { return s.start - s.due }

// poissonSchedule returns n due offsets of a Poisson arrival process at
// rate per second, drawn from rng.
func poissonSchedule(rng *stats.RNG, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// runOpenLoop issues op(i) at each due offset on a pool of workers. The
// generator hands operations over in schedule order and blocks while every
// worker is busy, so a stall delays the operations behind it; each sample
// is timed from its due time, not from when it was issued.
func runOpenLoop(due []time.Duration, workers int, op func(i int) error) []openSample {
	samples := make([]openSample, len(due))
	jobs := make(chan int)
	var wg sync.WaitGroup
	origin := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				err := op(i)
				samples[i].end = time.Since(origin)
				samples[i].err = err
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(origin); wait > 0 {
			time.Sleep(wait)
		}
		jobs <- i
		samples[i].due = d
		samples[i].start = time.Since(origin)
	}
	close(jobs)
	wg.Wait()
	return samples
}
