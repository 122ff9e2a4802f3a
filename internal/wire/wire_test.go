package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"ppr/internal/crcutil"
	"ppr/internal/stats"
)

func mustDecodeAll(t *testing.T, b []byte) ([]Frame, DecoderStats) {
	t.Helper()
	d := NewDecoder(bytes.NewReader(b))
	var out []Frame
	for {
		f, err := d.Next()
		if err == io.EOF {
			return out, d.Stats()
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, f)
	}
}

func TestRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: 1, Flow: 0, Payload: nil},
		{Type: 2, Flow: 7, Payload: []byte("hello")},
		{Type: 0xFF, Flow: 0xFFFFFFFF, Payload: bytes.Repeat([]byte{0xA5}, 4096)},
		{Type: 3, Flow: 1, Payload: []byte{Magic0, Magic1, Version, 9, 9, 9}}, // magic inside payload
	}
	var b []byte
	for _, f := range frames {
		b = AppendFrame(b, f)
	}
	got, st := mustDecodeAll(t, b)
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i, f := range frames {
		g := got[i]
		if g.Type != f.Type || g.Flow != f.Flow || !bytes.Equal(g.Payload, f.Payload) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, g, f)
		}
	}
	if st.CRCErrors != 0 || st.ResyncBytes != 0 || st.Frames != int64(len(frames)) {
		t.Fatalf("stats %+v, want clean", st)
	}
}

// TestResyncAfterCorruption flips bytes in the middle frame and requires
// the decoder to deliver its intact neighbours.
func TestResyncAfterCorruption(t *testing.T) {
	a := AppendFrame(nil, Frame{Type: 1, Flow: 1, Payload: []byte("first")})
	mid := AppendFrame(nil, Frame{Type: 2, Flow: 2, Payload: bytes.Repeat([]byte("x"), 100)})
	c := AppendFrame(nil, Frame{Type: 3, Flow: 3, Payload: []byte("last")})
	for _, corrupt := range []int{0, 2, 9, 30, len(mid) - 1} {
		m := append([]byte(nil), mid...)
		m[corrupt] ^= 0x41
		b := append(append(append([]byte(nil), a...), m...), c...)
		got, st := mustDecodeAll(t, b)
		if len(got) != 2 || got[0].Flow != 1 || got[1].Flow != 3 {
			t.Fatalf("corrupt@%d: decoded %d frames (%v), want flows 1,3", corrupt, len(got), got)
		}
		if st.CRCErrors == 0 && st.ResyncBytes == 0 {
			t.Fatalf("corrupt@%d: no damage counted: %+v", corrupt, st)
		}
	}
}

// TestResyncAfterTruncation cuts a frame short mid-stream.
func TestResyncAfterTruncation(t *testing.T) {
	a := AppendFrame(nil, Frame{Type: 1, Flow: 1, Payload: []byte("first")})
	mid := AppendFrame(nil, Frame{Type: 2, Flow: 2, Payload: bytes.Repeat([]byte("y"), 64)})
	c := AppendFrame(nil, Frame{Type: 3, Flow: 3, Payload: []byte("last")})
	b := append(append(append([]byte(nil), a...), mid[:20]...), c...)
	got, _ := mustDecodeAll(t, b)
	if len(got) != 2 || got[0].Flow != 1 || got[1].Flow != 3 {
		t.Fatalf("decoded %v, want flows 1,3", got)
	}
}

// TestOversizeHeaderSkipped: a forged header claiming a giant payload must
// not make the decoder wait for (or allocate) the claimed bytes.
func TestOversizeHeaderSkipped(t *testing.T) {
	// A CRC-valid header claiming an absurd payload: the strongest forgery.
	forged := []byte{Magic0, Magic1, Version, 1, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	var hcrc [4]byte
	binary.BigEndian.PutUint32(hcrc[:], crcutil.Sum32(forged))
	forged = append(forged, hcrc[:]...)
	good := AppendFrame(nil, Frame{Type: 7, Flow: 42, Payload: []byte("ok")})
	got, st := mustDecodeAll(t, append(forged, good...))
	if len(got) != 1 || got[0].Flow != 42 {
		t.Fatalf("decoded %v, want the one good frame", got)
	}
	if st.Oversize == 0 {
		t.Fatalf("oversize not counted: %+v", st)
	}
	d := NewDecoder(bytes.NewReader(append(forged, good...)))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if d.BufCap() > MaxFrameSize {
		t.Fatalf("decoder buffer %d exceeds MaxFrameSize %d", d.BufCap(), MaxFrameSize)
	}
}

// TestLeadingNoise: garbage before the first frame is skipped and counted.
func TestLeadingNoise(t *testing.T) {
	noise := bytes.Repeat([]byte{0xDE, 0xAD}, 50)
	good := AppendFrame(nil, Frame{Type: 1, Flow: 5, Payload: []byte("p")})
	got, st := mustDecodeAll(t, append(noise, good...))
	if len(got) != 1 || got[0].Flow != 5 {
		t.Fatalf("decoded %v", got)
	}
	if st.ResyncBytes < int64(len(noise)) {
		t.Fatalf("resync bytes %d, want >= %d", st.ResyncBytes, len(noise))
	}
}

// TestOneByteReads: the decoder tolerates a transport that dribbles one
// byte per read.
func TestOneByteReads(t *testing.T) {
	var b []byte
	for i := 0; i < 5; i++ {
		b = AppendFrame(b, Frame{Type: byte(i), Flow: uint32(i), Payload: bytes.Repeat([]byte{byte(i)}, i*10)})
	}
	d := NewDecoder(iotest.OneByteReader(bytes.NewReader(b)))
	for i := 0; i < 5; i++ {
		f, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Flow != uint32(i) {
			t.Fatalf("frame %d: flow %d", i, f.Flow)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestPayloadCopyIndependent: a returned payload survives later Next calls.
func TestPayloadCopyIndependent(t *testing.T) {
	b := AppendFrame(nil, Frame{Type: 1, Flow: 1, Payload: []byte("aaaa")})
	b = AppendFrame(b, Frame{Type: 2, Flow: 2, Payload: []byte("bbbb")})
	d := NewDecoder(bytes.NewReader(b))
	f1, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if string(f1.Payload) != "aaaa" {
		t.Fatalf("first payload clobbered: %q", f1.Payload)
	}
}

func faultPipe(t *testing.T, spec FaultSpec, seed uint64) (cli net.Conn, srvSide *FaultConn) {
	t.Helper()
	a, b := net.Pipe()
	fc := NewFaultConn(a, spec, stats.NewRNG(seed))
	t.Cleanup(func() { fc.Close(); b.Close() })
	return b, fc
}

// writeFrames pushes frames through the fault conn on a goroutine and
// returns what the peer decoded.
func throughFaults(t *testing.T, spec FaultSpec, seed uint64, frames []Frame) ([]Frame, DecoderStats, *FaultConn) {
	t.Helper()
	peer, fc := faultPipe(t, spec, seed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := NewEncoder(fc)
		for _, f := range frames {
			if err := enc.Encode(f); err != nil {
				return
			}
		}
		fc.Close()
	}()
	d := NewDecoder(peer)
	var got []Frame
	for {
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		f, err := d.Next()
		if err != nil {
			break
		}
		got = append(got, f)
	}
	<-done
	return got, d.Stats(), fc
}

func testFrames(n int) []Frame {
	out := make([]Frame, n)
	for i := range out {
		out[i] = Frame{Type: 1, Flow: uint32(i), Payload: bytes.Repeat([]byte{byte(i)}, 16)}
	}
	return out
}

func TestFaultDropAll(t *testing.T) {
	got, _, fc := throughFaults(t, FaultSpec{Drop: 1}, 1, testFrames(10))
	if len(got) != 0 {
		t.Fatalf("drop=1 delivered %d frames", len(got))
	}
	if d, _, _, _, _, _, _ := fc.Fired(); d != 10 {
		t.Fatalf("drop fired %d, want 10", d)
	}
}

func TestFaultDuplicateAll(t *testing.T) {
	got, _, _ := throughFaults(t, FaultSpec{Duplicate: 1}, 1, testFrames(5))
	if len(got) != 10 {
		t.Fatalf("duplicate=1 delivered %d frames, want 10", len(got))
	}
}

func TestFaultCorruptAllDetected(t *testing.T) {
	got, st, _ := throughFaults(t, FaultSpec{Corrupt: 1}, 1, testFrames(8))
	// Every frame had one bit flipped: none may arrive intact-but-wrong.
	for _, f := range got {
		if int(f.Flow) >= 8 || !bytes.Equal(f.Payload, bytes.Repeat([]byte{byte(f.Flow)}, 16)) {
			t.Fatalf("corrupted frame delivered as intact: %+v", f)
		}
	}
	if st.CRCErrors+st.ResyncBytes == 0 {
		t.Fatalf("no damage recorded: %+v", st)
	}
}

func TestFaultTruncate(t *testing.T) {
	got, _, fc := throughFaults(t, FaultSpec{Truncate: 0.5}, 3, testFrames(20))
	_, _, _, trunc, _, _, _ := fc.Fired()
	if trunc == 0 {
		t.Fatal("truncate never fired")
	}
	if len(got)+trunc < 20 {
		t.Fatalf("delivered %d with %d truncated: lost extra frames", len(got), trunc)
	}
	for _, f := range got {
		if !bytes.Equal(f.Payload, bytes.Repeat([]byte{byte(f.Flow)}, 16)) {
			t.Fatalf("damaged frame delivered: %+v", f)
		}
	}
}

func TestFaultReorderSwapsAdjacent(t *testing.T) {
	// Reorder only the first frame (p=1 would re-hold at each flush; the
	// held slot logic releases after the successor, so with p=1 every
	// other frame swaps). Using 2 frames keeps the assertion exact.
	got, _, _ := throughFaults(t, FaultSpec{Reorder: 1}, 1, testFrames(2))
	if len(got) != 2 || got[0].Flow != 1 || got[1].Flow != 0 {
		t.Fatalf("got %v, want flows [1 0]", got)
	}
}

func TestFaultReorderFlushWithoutSuccessor(t *testing.T) {
	got, _, _ := throughFaults(t, FaultSpec{Reorder: 1, HoldDelay: 5 * time.Millisecond}, 1, testFrames(1))
	if len(got) != 1 || got[0].Flow != 0 {
		t.Fatalf("held frame never flushed: %v", got)
	}
}

// holdFlushGoroutines counts live goroutines running a reorder fault's
// hold-delay flush. time.AfterFunc starts them from the runtime's timer
// code, so they carry no pprof label and a label-scoped leakcheck never
// sees them; TestFaultCloseEndsHoldTimer checks them directly.
func holdFlushGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "(*FaultConn).flushHeldAsync(") {
			count++
		}
	}
	return count
}

// waitHoldFlushGoroutines polls until want hold-flush goroutines are alive,
// reporting false if that does not happen within two seconds.
func waitHoldFlushGoroutines(want int) bool {
	end := time.Now().Add(2 * time.Second)
	for holdFlushGoroutines() != want {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestFaultCloseEndsHoldTimer: the goroutine a reorder fault's hold timer
// starts never outlives Close. Closed before the timer fires, Close stops
// it and delivers the held frame itself; closed while a fired flush is
// blocked on a peer that is not reading, Close waits for that flush and
// the goroutine ends once the peer reads.
func TestFaultCloseEndsHoldTimer(t *testing.T) {
	frame := testFrames(1)[0]
	closeAndRead := func(t *testing.T, peer net.Conn, fc *FaultConn) {
		t.Helper()
		closed := make(chan error, 1)
		go func() { closed <- fc.Close() }()
		peer.SetReadDeadline(time.Now().Add(5 * time.Second))
		if f, err := NewDecoder(peer).Next(); err != nil || f.Flow != frame.Flow {
			t.Fatalf("held frame: got %+v, %v", f, err)
		}
		if err := <-closed; err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	t.Run("before-fire", func(t *testing.T) {
		const hold = 50 * time.Millisecond
		peer, fc := faultPipe(t, FaultSpec{Reorder: 1, HoldDelay: hold}, 1)
		if err := NewEncoder(fc).Encode(frame); err != nil {
			t.Fatal(err)
		}
		closeAndRead(t, peer, fc)
		time.Sleep(3 * hold)
		if n := holdFlushGoroutines(); n != 0 {
			t.Fatalf("%d hold-timer goroutine(s) alive after Close", n)
		}
	})
	t.Run("after-fire", func(t *testing.T) {
		peer, fc := faultPipe(t, FaultSpec{Reorder: 1, HoldDelay: time.Millisecond}, 1)
		if err := NewEncoder(fc).Encode(frame); err != nil {
			t.Fatal(err)
		}
		// Nobody reads the peer yet, so the fired flush blocks in its
		// pipe write.
		if !waitHoldFlushGoroutines(1) {
			t.Fatal("hold timer never fired")
		}
		closeAndRead(t, peer, fc)
		if !waitHoldFlushGoroutines(0) {
			t.Fatalf("%d hold-timer goroutine(s) alive after Close", holdFlushGoroutines())
		}
	})
}

func TestFaultHardClose(t *testing.T) {
	got, _, fc := throughFaults(t, FaultSpec{HardClose: 1}, 1, testFrames(5))
	if len(got) != 0 {
		t.Fatalf("hard close delivered %d frames", len(got))
	}
	if _, _, _, _, _, _, hc := fc.Fired(); hc != 1 {
		t.Fatalf("hardClose fired %d, want 1", hc)
	}
}

func TestFaultDeterministicChoices(t *testing.T) {
	spec := FaultSpec{Drop: 0.3, Duplicate: 0.2, Corrupt: 0.2}
	a, _, fcA := throughFaults(t, spec, 99, testFrames(50))
	b, _, fcB := throughFaults(t, spec, 99, testFrames(50))
	da, pa, ca, _, _, _, _ := fcA.Fired()
	db, pb, cb, _, _, _, _ := fcB.Fired()
	if da != db || pa != pb || ca != cb {
		t.Fatalf("fault decisions diverged for same seed: %d/%d/%d vs %d/%d/%d", da, pa, ca, db, pb, cb)
	}
	if len(a) != len(b) {
		t.Fatalf("deliveries diverged: %d vs %d", len(a), len(b))
	}
}
