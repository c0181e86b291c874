package main

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"thinc/internal/client"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
	"thinc/internal/workload"
)

// heldReader returns the stream in small chunks, sleeping hold before
// the first byte at offset holdAt: an update whose tail the network
// holds back by a known delay.
type heldReader struct {
	data   []byte
	off    int
	holdAt int
	hold   time.Duration
	chunk  int
}

func (r *heldReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	if r.off == r.holdAt {
		time.Sleep(r.hold)
	}
	end := r.off + r.chunk
	if end > len(r.data) {
		end = len(r.data)
	}
	if r.off < r.holdAt && end > r.holdAt {
		end = r.holdAt
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

func frame(t *testing.T, msgs ...wire.Message) []byte {
	t.Helper()
	var out []byte
	for _, m := range msgs {
		var err error
		if out, err = wire.AppendMessage(out, m); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// runLikeConn drains r the way client.Conn.Run does: one message per
// wire.ReadMessage, applied before the next read.
func runLikeConn(t *testing.T, r io.Reader, c *client.Client) {
	t.Helper()
	for {
		m, err := wire.ReadMessage(r)
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamMeterCatchesHeldBackUpdate(t *testing.T) {
	const hold = 60 * time.Millisecond
	head := frame(t,
		&wire.SFill{Rect: geom.XYWH(0, 0, 32, 32), Color: pixel.RGB(10, 20, 30)},
		&wire.SFill{Rect: geom.XYWH(32, 0, 32, 32), Color: pixel.RGB(40, 50, 60)})
	pix := make([]pixel.ARGB, 16*16)
	for i := range pix {
		pix[i] = pixel.RGB(uint8(i), 0, 255)
	}
	raw, err := wire.NewRaw(geom.XYWH(8, 8, 16, 16), pix, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	tail := frame(t, raw)
	r := &heldReader{data: append(head, tail...), holdAt: len(head), hold: hold, chunk: 7}

	var mu sync.Mutex
	var lastPaint int64
	var types []wire.Type
	m := newStreamMeter(r, func(now int64, a applied) {
		mu.Lock()
		defer mu.Unlock()
		types = append(types, a.Type)
		if paints(a.Type) {
			lastPaint = now
		}
	})
	c := client.New(64, 32)
	start := nowNS()
	runLikeConn(t, m, c)

	mu.Lock()
	defer mu.Unlock()
	if len(types) != 3 || types[2] != wire.TRaw {
		t.Fatalf("meter saw %v, want SFILL SFILL RAW", types)
	}
	glass := time.Duration(lastPaint - start)
	if glass < hold {
		t.Fatalf("glass %v shorter than the %v the update was held back", glass, hold)
	}
	if glass > hold+200*time.Millisecond {
		t.Fatalf("glass %v far beyond the %v hold", glass, hold)
	}
	want := fb.New(64, 32)
	want.FillSolid(geom.XYWH(0, 0, 32, 32), pixel.RGB(10, 20, 30))
	want.FillSolid(geom.XYWH(32, 0, 32, 32), pixel.RGB(40, 50, 60))
	want.PutImage(geom.XYWH(8, 8, 16, 16), pix, 16)
	if !c.FB().Equal(want) {
		t.Fatal("client applied a different picture than the stream carried")
	}
}

func TestStreamMeterReportsApplyAfterNextRead(t *testing.T) {
	// A message is reported only once the reader comes back for more,
	// i.e. after the consumer applied it — never while it is still
	// being read.
	data := frame(t, &wire.SFill{Rect: geom.XYWH(0, 0, 4, 4), Color: 1})
	var got []applied
	m := newStreamMeter(bytes.NewReader(data), func(_ int64, a applied) { got = append(got, a) })
	buf := make([]byte, len(data))
	if _, err := io.ReadFull(m, buf); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("reported %d messages before the consumer read again", len(got))
	}
	if _, err := m.Read(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if len(got) != 1 || got[0].Size != len(data) {
		t.Fatalf("got %+v, want one message of %d bytes", got, len(data))
	}
}

func TestStreamMeterVideoPTS(t *testing.T) {
	data := frame(t,
		&wire.VideoFrame{Stream: 1, Seq: 7, PTS: 41666 * 5, W: 2, H: 2, Data: make([]byte, 6)},
		&wire.Ping{Seq: 1})
	var got []applied
	m := newStreamMeter(&heldReader{data: data, holdAt: -1, chunk: 3},
		func(_ int64, a applied) { got = append(got, a) })
	if _, err := io.Copy(io.Discard, m); err != nil {
		t.Fatal(err)
	}
	m.Read(nil) // the consumer's next read reports the last message
	if len(got) != 2 || got[0].Type != wire.TVideoFrame || got[0].PTS != 41666*5 || got[1].Type != wire.TPing {
		t.Fatalf("got %+v", got)
	}
	if paints(wire.TPing) || !paints(wire.TVideoFrame) {
		t.Fatal("paints misclassifies control and video messages")
	}
}

func TestPlayoutSlotsFramesByPTS(t *testing.T) {
	// VideoFrames stamped clip.PTS(k) land in slot k, and the drain's
	// condition holds as soon as the client applied the last one.
	clip := workload.DefaultClip()
	const n = 2000
	var msgs []wire.Message
	for k := 0; k < n; k++ {
		msgs = append(msgs, &wire.VideoFrame{Stream: 1, Seq: uint32(k), PTS: clip.PTS(k), W: 2, H: 2, Data: make([]byte, 6)})
	}
	p := newPlayout(clip, n)
	p.start()
	slots := map[int]int{}
	clock := int64(0)
	m := newStreamMeter(bytes.NewReader(frame(t, msgs...)), func(_ int64, a applied) {
		clock++
		slots[p.slot(a.PTS)]++
		p.show(clock, a.PTS)
	})
	for k := 0; k < n; k++ {
		if _, err := wire.ReadMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	if p.shownUpTo(n) {
		t.Fatal("last frame counted as shown before the client applied it")
	}
	if _, err := m.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if !p.shownUpTo(n) {
		t.Fatal("last frame applied but not shown: the drain would wait out its limit")
	}
	for k := 0; k < n; k++ {
		if slots[k] != 1 || p.shown[k] != int64(k+1) {
			t.Fatalf("slot %d: %d frames, shown at %d; want frame %d alone", k, slots[k], p.shown[k], k)
		}
	}
	if shown, _, _ := p.quality(0, n, clip.FPS); shown != n {
		t.Fatalf("%d of %d frames shown", shown, n)
	}
}

func TestPlayoutQualityCountsLateFrames(t *testing.T) {
	clip := workload.DefaultClip()
	iv := int64(clip.FrameInterval()) * int64(time.Microsecond)
	p := newPlayout(clip, 48)
	p.show(1, clip.PTS(0)) // before playback starts: not counted
	p.start()
	const delay = int64(30 * time.Millisecond)
	for k := 0; k < 48; k++ {
		switch {
		case k == 30: // never shown
		case k == 40: // shown two intervals behind the playout clock
			p.show(int64(k)*iv+delay+2*iv, clip.PTS(k))
		default:
			p.show(int64(k)*iv+delay, clip.PTS(k))
		}
	}
	shown, ontime, d := p.quality(0, 48, clip.FPS)
	if shown != 47 || ontime != 46 || int64(d) != delay {
		t.Fatalf("shown %d, on time %d, delay %v; want 47, 46, %v", shown, ontime, d, delay)
	}
}

func TestRectWatchResolvesSupersededSamples(t *testing.T) {
	f := fb.New(16, 16)
	red, blue := pixel.RGB(255, 0, 0), pixel.RGB(0, 0, 255)
	fill := func(c pixel.ARGB, n int) []pixel.ARGB {
		p := make([]pixel.ARGB, n)
		for i := range p {
			p[i] = c
		}
		return p
	}
	w := &rectWatch{}
	w.add(rectSample{ID: 1, StartNS: 100, Rect: geom.XYWH(0, 0, 4, 4), Want: fill(red, 16)})
	w.add(rectSample{ID: 2, StartNS: 200, Rect: geom.XYWH(2, 2, 4, 4), Want: fill(blue, 16)})
	w.add(rectSample{ID: 3, StartNS: 300, Rect: geom.XYWH(10, 10, 2, 2), Want: fill(red, 4)})

	done := map[int]int64{}
	record := func(s rectSample, g int64) { done[s.ID] = g }
	w.check(f, 1000, record)
	if len(done) != 0 {
		t.Fatalf("resolved %v before any pixels matched", done)
	}
	// The newer overlapping update lands; the older one it covered
	// resolves with it, the unrelated one stays pending.
	f.FillSolid(geom.XYWH(2, 2, 4, 4), blue)
	w.check(f, 1500, record)
	if done[1] != 1400 || done[2] != 1300 || len(done) != 2 || w.size() != 1 {
		t.Fatalf("after overlap: done %v, pending %d", done, w.size())
	}
	if n := w.expire(10_000, 1000); n != 1 || w.size() != 0 {
		t.Fatalf("expire failed %d, pending %d", n, w.size())
	}
}
