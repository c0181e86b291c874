package main

import (
	"encoding/binary"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
)

// Glass, defined once: a sample starts when the benchmark calls
// Host.Do to draw the update (open-loop workloads: when the update was
// due) and ends when the client finishes the last apply that makes its
// pixels in the damaged rectangle equal the server's.

// epoch anchors nowNS; every timestamp in the benchmark is nanoseconds
// on the monotonic clock since process start.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// quietNS is how long a client stream must stay silent before the
// benchmark treats an update as fully delivered and verifies it. The
// server flushes every 5ms while it has anything queued, so a 25ms gap
// only follows a drained queue.
const quietNS = int64(25 * time.Millisecond)

// streamClock records when a client's stream last delivered bytes and
// last changed pixels. Both session kinds embed it and wait on it.
type streamClock struct {
	lastByte  atomic.Int64 // nowNS of the last byte read
	lastPaint atomic.Int64 // nowNS of the last pixel-changing apply
}

// settle waits until the client has applied a pixel-changing message
// after startNS (when needPaint) and its stream has then gone quiet,
// and calls match once; a mismatch keeps waiting. The wait fails at
// endNS, or as soon as dead (if not nil) reports true. It returns the
// time from startNS to the last pixel-changing apply (the glass
// latency) and whether match held in time. Requiring a paint after
// startNS keeps a client whose old pixels already match (a resume of an
// unchanged screen, a page loaded twice in a row) from passing before
// the update arrives.
func (c *streamClock) settle(startNS, endNS int64, needPaint bool, dead, match func() bool) (int64, bool) {
	for {
		now := nowNS()
		if now > endNS || (dead != nil && dead()) {
			return 0, false
		}
		if (!needPaint || c.lastPaint.Load() > startNS) && now-c.lastByte.Load() >= quietNS {
			if match() {
				return max(c.lastPaint.Load()-startNS, 0), true
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// paints reports whether a message type can change framebuffer pixels.
func paints(t wire.Type) bool {
	switch t {
	case wire.TRaw, wire.TCopy, wire.TSFill, wire.TPFill, wire.TBitmap,
		wire.TVideoFrame, wire.TVideoMove, wire.TCacheStore, wire.TCachePaint:
		return true
	}
	return false
}

// applied describes one message a client has finished applying.
type applied struct {
	Type wire.Type
	Size int    // wire bytes, header included
	PTS  uint64 // VideoFrame presentation timestamp (µs), else 0
	// ApplyNS is the time from the read that returned the message's
	// last byte to the next read: client decode and apply.
	ApplyNS int64
}

// streamMeter wraps the decrypted stream a client.Conn reads (install
// with Conn.SetReadWrapper). Conn.Run reads each message with two
// io.ReadFull calls, header then payload, and applies it before it
// reads again; so the entry into the Read that follows a message's
// last byte is the moment Run finished applying that message. The
// meter tracks message framing itself and reports each message through
// onApplied at that moment, on Run's goroutine.
type streamMeter struct {
	r         io.Reader
	onApplied func(now int64, a applied)

	// Framing state, touched only on the reading goroutine.
	hdr    [wire.HeaderSize]byte
	hdrN   int
	remain int
	typ    wire.Type
	head   [16]byte // first payload bytes: VideoFrame stream, seq, PTS
	headN  int
	size   int
	done   []applied
	lastRt int64

	// activity, when set, receives the nowNS of every read that
	// returned data, control traffic included.
	activity *atomic.Int64
}

func newStreamMeter(r io.Reader, onApplied func(int64, applied)) *streamMeter {
	return &streamMeter{r: r, onApplied: onApplied}
}

// Read implements io.Reader.
func (m *streamMeter) Read(p []byte) (int, error) {
	if len(m.done) > 0 {
		now := nowNS()
		for _, a := range m.done {
			a.ApplyNS = now - m.lastRt
			m.onApplied(now, a)
		}
		m.done = m.done[:0]
	}
	n, err := m.r.Read(p)
	if n > 0 {
		m.lastRt = nowNS()
		m.scan(p[:n])
		if m.activity != nil {
			m.activity.Store(m.lastRt)
		}
	}
	return n, err
}

// scan advances the framing parser over b, queueing every message
// whose last byte it contains.
func (m *streamMeter) scan(b []byte) {
	for len(b) > 0 {
		if m.hdrN < wire.HeaderSize {
			c := copy(m.hdr[m.hdrN:], b)
			m.hdrN += c
			b = b[c:]
			if m.hdrN < wire.HeaderSize {
				return
			}
			m.typ = wire.Type(m.hdr[0])
			m.remain = int(binary.BigEndian.Uint32(m.hdr[1:]))
			m.size = wire.HeaderSize + m.remain
			m.headN = 0
		} else {
			c := m.remain
			if c > len(b) {
				c = len(b)
			}
			if m.headN < len(m.head) {
				m.headN += copy(m.head[m.headN:], b[:c])
			}
			m.remain -= c
			b = b[c:]
		}
		if m.hdrN == wire.HeaderSize && m.remain == 0 {
			a := applied{Type: m.typ, Size: m.size}
			if m.typ == wire.TVideoFrame && m.headN >= 16 {
				a.PTS = binary.BigEndian.Uint64(m.head[8:16])
			}
			m.done = append(m.done, a)
			m.hdrN = 0
		}
	}
}

// rectSample is one pending glass sample checked by pixel comparison:
// the damaged rectangle and the server's pixels in it after the draw.
type rectSample struct {
	ID      int
	StartNS int64
	Rect    geom.Rect
	Want    []pixel.ARGB
}

// rectWatch holds the pending samples of one client framebuffer. After
// each apply that could touch them, check compares the client's pixels
// in each pending rectangle with the server's. A later update may
// overwrite an earlier one before the client ever shows it (the
// server's scheduler evicts overwritten commands), so resolving a
// sample also resolves every older pending sample it overlaps: the
// user sees content at least as new at that moment.
type rectWatch struct {
	mu      sync.Mutex
	pending []rectSample
}

// add registers a sample.
func (w *rectWatch) add(s rectSample) {
	w.mu.Lock()
	w.pending = append(w.pending, s)
	w.mu.Unlock()
}

// size returns the number of pending samples.
func (w *rectWatch) size() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending)
}

// check resolves pending samples against f at time now, calling done
// for each with its glass latency. The caller must keep f stable.
func (w *rectWatch) check(f *fb.Framebuffer, now int64, done func(s rectSample, glassNS int64)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.pending) - 1; i >= 0; i-- {
		s := w.pending[i]
		if !rectEqual(f, s.Rect, s.Want) {
			continue
		}
		keep := w.pending[:0]
		for j, o := range w.pending {
			if j == i || (j < i && o.Rect.Overlaps(s.Rect)) {
				done(o, now-o.StartNS)
				continue
			}
			keep = append(keep, o)
		}
		w.pending = keep
		// Indices shifted; restart from the newest survivor.
		i = len(w.pending)
	}
}

// expire fails every sample older than deadline, returning how many.
func (w *rectWatch) expire(now, deadlineNS int64) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	keep := w.pending[:0]
	for _, s := range w.pending {
		if now-s.StartNS > deadlineNS {
			n++
			continue
		}
		keep = append(keep, s)
	}
	w.pending = keep
	return n
}

// rectEqual reports whether f holds want (row-major, r.W() stride) in r.
func rectEqual(f *fb.Framebuffer, r geom.Rect, want []pixel.ARGB) bool {
	pix, fw := f.Pix(), f.W()
	w := r.W()
	for y := r.Y0; y < r.Y1; y++ {
		row := pix[y*fw+r.X0 : y*fw+r.X1]
		exp := want[(y-r.Y0)*w : (y-r.Y0+1)*w]
		for x := range row {
			if row[x] != exp[x] {
				return false
			}
		}
	}
	return true
}

// pixEqual reports whether two pixel slices are identical.
func pixEqual(a, b []pixel.ARGB) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
