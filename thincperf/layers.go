package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"thinc/internal/cipher"
	"thinc/internal/client"
	"thinc/internal/compress"
	"thinc/internal/core"
	"thinc/internal/driver"
	"thinc/internal/fb"
	"thinc/internal/geom"
	"thinc/internal/pixel"
	"thinc/internal/wire"
	"thinc/internal/xserver"
)

// timingDriver is the driver.Driver the per-layer replay plugs into the
// window system: core.Server with each translation entrypoint timed.
type timingDriver struct {
	*core.Server
	ns    map[string]int64
	calls map[string]int64
}

func (t *timingDriver) note(entry string, start int64) {
	t.ns[entry] += nowNS() - start
	t.calls[entry]++
}

func (t *timingDriver) FillSolid(d driver.DrawableID, r geom.Rect, c pixel.ARGB) {
	t0 := nowNS()
	t.Server.FillSolid(d, r, c)
	t.note("FillSolid", t0)
}

func (t *timingDriver) FillTile(d driver.DrawableID, r geom.Rect, tile *fb.Tile) {
	t0 := nowNS()
	t.Server.FillTile(d, r, tile)
	t.note("FillTile", t0)
}

func (t *timingDriver) FillStipple(d driver.DrawableID, r geom.Rect, bm *fb.Bitmap, fg, bg pixel.ARGB, transparent bool) {
	t0 := nowNS()
	t.Server.FillStipple(d, r, bm, fg, bg, transparent)
	t.note("FillStipple", t0)
}

func (t *timingDriver) PutImage(d driver.DrawableID, r geom.Rect, pix []pixel.ARGB, stride int) {
	t0 := nowNS()
	t.Server.PutImage(d, r, pix, stride)
	t.note("PutImage", t0)
}

func (t *timingDriver) CopyArea(dst, src driver.DrawableID, sr geom.Rect, dp geom.Point) {
	t0 := nowNS()
	t.Server.CopyArea(dst, src, sr, dp)
	t.note("CopyArea", t0)
}

func (t *timingDriver) VideoFrame(stream uint32, frame *pixel.YV12Image, ptsUS uint64) {
	t0 := nowNS()
	t.Server.VideoFrame(stream, frame, ptsUS)
	t.note("VideoFrame", t0)
}

// replayLayers replays a workload's inputs through the pipeline's
// public functions one layer at a time and fills the per-layer
// metrics: driver entrypoints (xserver.NewDisplay over a timing driver
// around core.Server), the SRSF flush (core.Client.Flush,
// ClientBuffer.QueuedBytes), the codec (compress.EncodeAppend over the
// RAW payloads), framing (wire.AppendMessage / wire.ReadMessage), RC4
// (cipher.StreamConn) and client apply (client.Client.Apply). The
// replayed client must end byte-identical to the replayed screen.
func replayLayers(w, h int, prep func(*xserver.Display), updates []func(*xserver.Display), out map[string]float64) error {
	td := &timingDriver{
		Server: core.NewServer(core.Options{RawCodec: compress.CodecPNG}),
		ns:     map[string]int64{},
		calls:  map[string]int64{},
	}
	d := xserver.NewDisplay(w, h, td)
	if prep != nil {
		prep(d)
	}
	cl := td.AttachClient(w, h)
	initial := cl.FlushAll()
	for k := range td.ns {
		delete(td.ns, k)
		delete(td.calls, k)
	}
	queued0 := cl.Buf.Stats.Queued

	var msgs []wire.Message
	var flushNS, queuedB, flushB int64
	for _, u := range updates {
		u(d)
		queuedB += int64(cl.Buf.QueuedBytes())
		t0 := nowNS()
		for {
			batch := cl.Flush(256 << 10)
			if len(batch) == 0 {
				break
			}
			msgs = append(msgs, batch...)
		}
		flushNS += nowNS() - t0
	}
	for _, m := range msgs {
		flushB += int64(wire.WireSize(m))
	}
	n := float64(len(updates))
	for _, e := range driverEntries {
		if c := td.calls[e]; c > 0 {
			out["core.driver_"+e+"_ns"] = float64(td.ns[e]) / float64(c)
			out["core.driver_"+e+"_calls"] = float64(c) / n
		}
	}
	out["core.flush_us"] = float64(flushNS) / n / 1e3
	out["core.flush_msgs"] = float64(len(msgs)) / n
	out["core.flush_kb"] = float64(flushB) / n / 1024
	out["core.queued_kb"] = float64(queuedB) / n / 1024
	if added := cl.Buf.Stats.Queued - queued0; added > 0 {
		out["core.emit_ratio"] = float64(len(msgs)) / float64(added)
	}

	// Codec: re-encode every RAW payload's pixels with its codec.
	var encNS, rawB, encB int64
	var scratch []byte
	for _, m := range msgs {
		r, ok := m.(*wire.Raw)
		if !ok || r.Codec == compress.CodecNone {
			continue
		}
		pix, err := r.Pixels()
		if err != nil {
			return fmt.Errorf("replay: decode RAW: %w", err)
		}
		t0 := nowNS()
		scratch, err = compress.EncodeAppend(r.Codec, scratch[:0], pix, r.Rect.W(), r.Rect.H())
		encNS += nowNS() - t0
		if err != nil {
			return fmt.Errorf("replay: encode RAW: %w", err)
		}
		rawB += int64(len(pix) * 4)
		encB += int64(len(scratch))
	}
	if rawB > 0 {
		out["compress.encode_ns_per_kb"] = float64(encNS) / (float64(rawB) / 1024)
		out["compress.ratio"] = float64(rawB) / float64(encB)
	}

	// Framing: encode the stream, then decode it back.
	var stream, buf []byte
	var err error
	t0 := nowNS()
	for _, m := range msgs {
		if buf, err = wire.AppendMessage(buf[:0], m); err != nil {
			return fmt.Errorf("replay: frame: %w", err)
		}
		stream = append(stream, buf...)
	}
	encodeNS := nowNS() - t0
	var decoded []wire.Message
	rd := bytes.NewReader(stream)
	t0 = nowNS()
	for rd.Len() > 0 {
		m, err := wire.ReadMessage(rd)
		if err != nil {
			return fmt.Errorf("replay: deframe: %w", err)
		}
		decoded = append(decoded, m)
	}
	decodeNS := nowNS() - t0
	if len(msgs) > 0 {
		out["wire.encode_ns_per_msg"] = float64(encodeNS) / float64(len(msgs))
		out["wire.decode_ns_per_msg"] = float64(decodeNS) / float64(len(msgs))
	}

	// RC4: encrypt the framed stream in flush-sized writes.
	sc, err := cipher.NewStreamConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(nil), io.Discard}, []byte("thincperf"), true)
	if err != nil {
		return fmt.Errorf("replay: cipher: %w", err)
	}
	t0 = nowNS()
	for off := 0; off < len(stream); off += 256 << 10 {
		end := off + 256<<10
		if end > len(stream) {
			end = len(stream)
		}
		if _, err := sc.Write(stream[off:end]); err != nil {
			return fmt.Errorf("replay: cipher: %w", err)
		}
	}
	if len(stream) > 0 {
		out["cipher.ns_per_kb"] = float64(nowNS()-t0) / (float64(len(stream)) / 1024)
	}

	// Client apply, per message type, after the untimed initial sync.
	c := client.New(w, h)
	if err := c.ApplyAll(initial); err != nil {
		return fmt.Errorf("replay: apply initial sync: %w", err)
	}
	applyNS := map[string]int64{}
	applyN := map[string]int64{}
	for _, m := range decoded {
		t0 := nowNS()
		if err := c.Apply(m); err != nil {
			return fmt.Errorf("replay: apply %v: %w", m.Type(), err)
		}
		name := m.Type().String()
		applyNS[name] += nowNS() - t0
		applyN[name]++
	}
	for _, t := range applyTypes {
		if applyN[t] > 0 {
			out["client.apply_ns_"+t] = float64(applyNS[t]) / float64(applyN[t])
		}
	}
	if !c.FB().Equal(d.Screen()) {
		return fmt.Errorf("replay: client framebuffer diverged from the screen")
	}
	say("layers: replayed %d updates: %d messages, %.1f KB framed, client converged", len(updates), len(msgs), float64(len(stream))/1024)
	return nil
}

// heapByPackage splits the live heap by package, from a runtime/pprof
// heap profile (sampled; scaled back the way pprof does). Each
// allocation counts for the innermost thinc/internal package on its
// stack, except that framebuffer memory a client allocated counts for
// client: that splits the client framebuffer from the server's screen.
func heapByPackage() (map[string]float64, error) {
	gc()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 1); err != nil {
		return nil, fmt.Errorf("heap profile: %w", err)
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	var objs, size float64
	var stack []string // thinc/internal packages, innermost first
	flush := func() {
		if len(stack) == 0 {
			return
		}
		pkg := stack[0]
		if pkg == "fb" {
			for _, p := range stack[1:] {
				if p == "client" {
					pkg = "client"
					break
				}
			}
		}
		out[pkg] += scaleHeap(objs, size, rate)
		stack = stack[:0]
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# runtime.MemStats") {
			break
		}
		if strings.HasPrefix(line, "#\t") {
			// "#\t0xpc\tpkg.Func+0xoff\tfile:line"
			parts := strings.Split(line, "\t")
			const prefix = "thinc/internal/"
			if len(parts) < 3 || !strings.HasPrefix(parts[2], prefix) {
				continue
			}
			pkg := parts[2][len(prefix):]
			if j := strings.IndexAny(pkg, "./"); j > 0 {
				pkg = pkg[:j]
			}
			stack = append(stack, pkg)
			continue
		}
		// "inuse_objects: inuse_bytes [alloc_objects: alloc_bytes] @ pcs"
		i := strings.Index(line, " @ ")
		if i <= 0 || strings.HasPrefix(line, "heap profile") {
			continue
		}
		flush()
		f := strings.Fields(line[:i])
		if len(f) < 2 {
			continue
		}
		o, err1 := strconv.ParseFloat(strings.TrimSuffix(f[0], ":"), 64)
		b, err2 := strconv.ParseFloat(f[1], 64)
		if err1 != nil || err2 != nil {
			objs, size = 0, 0
			continue
		}
		objs, size = o, b
	}
	flush()
	return out, sc.Err()
}

// scaleHeap undoes heap-profile sampling: an allocation of average size
// s is sampled with probability 1-exp(-s/rate).
func scaleHeap(objs, size, rate float64) float64 {
	if objs == 0 || size == 0 || rate <= 1 {
		return size
	}
	avg := size / objs
	return size / (1 - math.Exp(-avg/rate))
}

// heapLayers fills heap.<pkg>_mb_per_session.
func heapLayers(sessions int, out map[string]float64) error {
	byPkg, err := heapByPackage()
	if err != nil {
		return err
	}
	for _, p := range heapPackages {
		out["heap."+p+"_mb_per_session"] = byPkg[p] / float64(sessions) / (1 << 20)
	}
	return nil
}

// gcDelta fills gc.pause_ms and gc.count across a phase.
func gcDelta(before, after *runtime.MemStats, out map[string]float64) {
	out["gc.pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	out["gc.count"] = float64(after.NumGC - before.NumGC)
}
