// Zero-copy read-in-place views: wire format v2.
//
// The hot scheduler messages — StealRequest, StealReply (and the Closure
// it carries), StealConfirm, Arg, Heartbeat, Ack, StatReport — are encoded
// with an explicit field-keyed layout so receivers can read them in place
// from the receive buffer instead of materializing structs:
//
//	offset 0..29  the same frame header as v1 (codec.go), version byte = 2
//	offset 30     u8 field count
//	then per field:
//	              u8  key = fieldID<<2 | wiretype
//	              payload, sized by the wiretype:
//	                wt1:   1 byte
//	                wt4:   4 bytes
//	                wt8:   8 bytes
//	                wtLen: u32 length + that many bytes
//
// Zero-valued fields are omitted (a nil slice is an omitted field; an
// empty-but-present slice is encoded with an inner count of 0, so nil and
// empty round-trip distinctly). A decoder skips fields whose id or
// wiretype it does not recognize — the wiretype alone determines the skip
// distance — so old and new daemons interoperate: a newer sender's extra
// fields are ignored, and its readers treat an older sender's missing
// fields as zero. The leading field count keeps truncation detectable
// (a prefix-cut body fails the walk instead of silently decoding as
// "fields absent").
//
// Cold control-plane tags (Register, Migrate, job queue RPCs, ...) keep
// their v1 positional bodies (codec.go). Each tag has exactly one format:
// DecodeView rejects a hot tag in a v1 frame and a cold tag in a v2 one.
// The accessors are the only v2 decoder — View.Materialize, and through
// it Decode, builds the owned struct by calling them.
//
// Arena + View manage buffer lifetime on the receive path: a UDP datagram
// is read into a pooled, reference-counted Arena, every frame in it
// becomes a pooled *View envelope payload aliasing those bytes, and the
// arena returns to the pool when the last view is freed. Accessors are
// lazy — a steal request costs one field scan, not a decoded struct — and
// everything an accessor returns without copying is documented as valid
// only while the view is alive.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"phish/internal/types"
)

// frameVersionV2 marks a frame whose body is the field-keyed layout above.
const frameVersionV2 = 2

// v2 wiretypes: the low two bits of a field key.
const (
	wt1   byte = 0 // 1 fixed byte
	wt4   byte = 1 // 4 fixed bytes
	wt8   byte = 2 // 8 fixed bytes
	wtLen byte = 3 // u32 length + bytes
)

// Field ids. Like tags and span kinds these are wire format: append new
// ids (1..63), never renumber. Id 0 is reserved so an all-zero key never
// parses as a real field.
const (
	fSRqThief = 1 // StealRequest

	fSRpOK   = 1 // StealReply
	fSRpTask = 2

	fSCRecord = 1 // StealConfirm

	fArgCont    = 1 // Arg
	fArgVal     = 2
	fArgCrossed = 3
	fArgTC      = 4

	fHBWorker = 1 // Heartbeat
	fHBSendNS = 2

	fAckSeq = 1 // Ack

	fStVer     = 1 // StatReport
	fStWorker  = 2
	fStDeque   = 3
	fStCount   = 4
	fStHists   = 5
	fStCkpts   = 6
	fStSpanSeq = 7
	fStOffNS   = 8
	fStSpans   = 9

	fClID      = 1 // Closure (sub-body inside StealReply.Task)
	fClFn      = 2
	fClArgs    = 3
	fClMissing = 4
	fClCont    = 5
	fClNoSteal = 6
	fClCkpt    = 7
	fClCkptSeq = 8
	fClTC      = 9
)

// v2Tag reports whether tag has a v2 field-keyed body shape.
func v2Tag(tag byte) bool {
	switch tag {
	case tStealRequest, tStealReply, tStealConfirm, tArg, tHeartbeat, tAck, tStatReport:
		return true
	}
	return false
}

// ---- v2 encoder -----------------------------------------------------------

// v2enc appends one field-keyed body: a count byte patched at the end,
// then one appended field per emitted value. It lives on the caller's
// stack; the only heap traffic is growth of the target buffer itself.
type v2enc struct {
	b  []byte
	at int // index of the count byte
	n  byte
}

func beginV2(b []byte) v2enc {
	b = append(b, 0)
	return v2enc{b: b, at: len(b) - 1}
}

func (e *v2enc) done() []byte {
	e.b[e.at] = e.n
	return e.b
}

func (e *v2enc) f1(id byte, v byte) {
	e.b = append(e.b, id<<2|wt1, v)
	e.n++
}

func (e *v2enc) f4(id byte, v uint32) {
	e.b = appendU32(append(e.b, id<<2|wt4), v)
	e.n++
}

func (e *v2enc) f8(id byte, v uint64) {
	e.b = appendU64(append(e.b, id<<2|wt8), v)
	e.n++
}

// begin opens a length-delimited field; end patches its length once the
// content is in place.
func (e *v2enc) begin(id byte) int {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 0)
	e.n++
	return len(e.b) - 4
}

func (e *v2enc) end(at int) {
	binary.BigEndian.PutUint32(e.b[at:at+4], uint32(len(e.b)-at-4))
}

func (e *v2enc) fBytes(id byte, p []byte) {
	e.b = appendU32(append(e.b, id<<2|wtLen), uint32(len(p)))
	e.b = append(e.b, p...)
	e.n++
}

func (e *v2enc) fStr(id byte, s string) {
	e.b = appendU32(append(e.b, id<<2|wtLen), uint32(len(s)))
	e.b = append(e.b, s...)
	e.n++
}

func (e *v2enc) fTaskID(id byte, t types.TaskID) {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 12)
	e.b = appendTaskID(e.b, t)
	e.n++
}

func (e *v2enc) fCont(id byte, c types.Continuation) {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 16)
	e.b = appendCont(e.b, c)
	e.n++
}

func (e *v2enc) fTC(id byte, tc TraceCtx) {
	e.b = append(e.b, id<<2|wtLen, 0, 0, 0, 13)
	e.b = appendTC(e.b, tc)
	e.n++
}

func closureIsZero(c *Closure) bool {
	return c.ID == (types.TaskID{}) && c.Fn == "" && c.Args == nil &&
		c.Missing == 0 && c.Cont == (types.Continuation{}) && !c.NoSteal &&
		c.Ckpt == nil && c.CkptSeq == 0 && c.TC == (TraceCtx{})
}

// appendClosureV2 writes a closure as a nested field-keyed sub-body.
func appendClosureV2(b []byte, c *Closure) ([]byte, error) {
	e := beginV2(b)
	if c.ID != (types.TaskID{}) {
		e.fTaskID(fClID, c.ID)
	}
	if c.Fn != "" {
		e.fStr(fClFn, c.Fn)
	}
	if c.Args != nil {
		at := e.begin(fClArgs)
		e.b = appendU32(e.b, uint32(len(c.Args)))
		var err error
		for _, v := range c.Args {
			if e.b, err = appendValue(e.b, v); err != nil {
				return nil, err
			}
		}
		e.end(at)
	}
	if c.Missing != 0 {
		e.f4(fClMissing, uint32(c.Missing))
	}
	if c.Cont != (types.Continuation{}) {
		e.fCont(fClCont, c.Cont)
	}
	if c.NoSteal {
		e.f1(fClNoSteal, 1)
	}
	if c.Ckpt != nil {
		e.fBytes(fClCkpt, c.Ckpt)
	}
	if c.CkptSeq != 0 {
		e.f8(fClCkptSeq, c.CkptSeq)
	}
	if c.TC != (TraceCtx{}) {
		e.fTC(fClTC, c.TC)
	}
	return e.done(), nil
}

// appendPayloadV2 writes the v2 body for a hot payload. Callers dispatch
// here only for tags v2Tag accepts (plus *View splices, which preserve
// even fields this build does not know about).
func appendPayloadV2(b []byte, p any) ([]byte, error) {
	if v, ok := p.(*View); ok {
		return append(b, v.body...), nil
	}
	e := beginV2(b)
	switch x := p.(type) {
	case StealRequest:
		if x.Thief != 0 {
			e.f4(fSRqThief, uint32(int32(x.Thief)))
		}
	case StealReply:
		if x.OK {
			e.f1(fSRpOK, 1)
		}
		if !closureIsZero(&x.Task) {
			at := e.begin(fSRpTask)
			var err error
			if e.b, err = appendClosureV2(e.b, &x.Task); err != nil {
				return nil, err
			}
			e.end(at)
		}
	case StealConfirm:
		if x.Record != (types.TaskID{}) {
			e.fTaskID(fSCRecord, x.Record)
		}
	case Arg:
		if x.Cont != (types.Continuation{}) {
			e.fCont(fArgCont, x.Cont)
		}
		if x.Val != nil {
			at := e.begin(fArgVal)
			var err error
			if e.b, err = appendValue(e.b, x.Val); err != nil {
				return nil, err
			}
			e.end(at)
		}
		if x.Crossed {
			e.f1(fArgCrossed, 1)
		}
		if x.TC != (TraceCtx{}) {
			e.fTC(fArgTC, x.TC)
		}
	case Heartbeat:
		if x.Worker != 0 {
			e.f4(fHBWorker, uint32(int32(x.Worker)))
		}
		if x.SendNS != 0 {
			e.f8(fHBSendNS, uint64(x.SendNS))
		}
	case Ack:
		if x.Seq != 0 {
			e.f8(fAckSeq, x.Seq)
		}
	case StatReport:
		if x.Ver != 0 {
			e.f4(fStVer, uint32(x.Ver))
		}
		if x.Worker != 0 {
			e.f4(fStWorker, uint32(int32(x.Worker)))
		}
		if x.Deque != 0 {
			e.f4(fStDeque, uint32(x.Deque))
		}
		if x.Counters != nil {
			at := e.begin(fStCount)
			e.b = appendU32(e.b, uint32(len(x.Counters)))
			for _, v := range x.Counters {
				e.b = appendI64(e.b, v)
			}
			e.end(at)
		}
		if x.Hists != nil {
			at := e.begin(fStHists)
			e.b = appendU32(e.b, uint32(len(x.Hists)))
			for _, h := range x.Hists {
				e.b = appendI32(e.b, h.Kind)
				e.b = appendI64(e.b, h.Count)
				e.b = appendI64(e.b, h.Sum)
				e.b = appendI64s(e.b, h.Counts)
			}
			e.end(at)
		}
		if x.Ckpts != nil {
			at := e.begin(fStCkpts)
			e.b = appendU32(e.b, uint32(len(x.Ckpts)))
			for _, c := range x.Ckpts {
				e.b = appendTaskID(e.b, c.Task)
				e.b = appendU64(e.b, c.Seq)
				e.b = appendBlob(e.b, c.Data)
			}
			e.end(at)
		}
		if x.SpanSeq != 0 {
			e.f8(fStSpanSeq, x.SpanSeq)
		}
		if x.ClockOffNS != 0 {
			e.f8(fStOffNS, uint64(x.ClockOffNS))
		}
		if x.Spans != nil {
			at := e.begin(fStSpans)
			e.b = appendU32(e.b, uint32(len(x.Spans)))
			for _, s := range x.Spans {
				e.b = append(e.b, s.Kind, s.Flags)
				e.b = appendI32(e.b, int32(s.Worker))
				e.b = appendTaskID(e.b, s.Task)
				e.b = appendTaskID(e.b, s.Parent)
				e.b = appendTaskID(e.b, s.Link)
				e.b = appendI32(e.b, int32(s.Peer))
				e.b = appendI64(e.b, s.Start)
				e.b = appendI64(e.b, s.End)
			}
			e.end(at)
		}
	default:
		return nil, fmt.Errorf("no v2 shape for %T", p)
	}
	return e.done(), nil
}

// ---- v2 walker ------------------------------------------------------------

// v2next splits the next field off b: its key, its value and the rest of
// the body. ok=false means b is too short for the field it starts; the
// wiretype alone sizes every field, so unknown ids are skipped the same way.
func v2next(b []byte) (key byte, val, rest []byte, ok bool) {
	if len(b) == 0 {
		return 0, nil, nil, false
	}
	key, b = b[0], b[1:]
	n := 0
	switch key & 3 {
	case wt1:
		n = 1
	case wt4:
		n = 4
	case wt8:
		n = 8
	case wtLen:
		if len(b) < 4 {
			return 0, nil, nil, false
		}
		n = int(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if n < 0 || len(b) < n {
		return 0, nil, nil, false
	}
	return key, b[:n], b[n:], true
}

// validateV2 walks every field of a body once so views handed to
// consumers are known to be well-framed: exactly the declared number of
// fields, no trailing bytes (nested content is still re-checked lazily by
// accessors).
func validateV2(body []byte) error {
	if len(body) == 0 {
		return errShortFrame
	}
	b := body[1:]
	for left := body[0]; left > 0; left-- {
		_, _, rest, ok := v2next(b)
		if !ok {
			return errShortFrame
		}
		b = rest
	}
	if len(b) != 0 {
		return errShortFrame
	}
	return nil
}

// v2field scans body for the first field with the given id and wiretype.
// A field whose id matches but whose wiretype does not is treated as
// unknown, the same forward-compatibility rule as skipping: both halves of
// the key are the field's identity.
func v2field(body []byte, id, wt byte) ([]byte, bool) {
	if len(body) == 0 {
		return nil, false
	}
	want, b := id<<2|wt, body[1:]
	for left := body[0]; left > 0; left-- {
		key, val, rest, ok := v2next(b)
		if !ok {
			return nil, false
		}
		if key == want {
			return val, true
		}
		b = rest
	}
	return nil, false
}

func v2u32(body []byte, id byte) uint32 {
	val, ok := v2field(body, id, wt4)
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint32(val)
}

func v2u64(body []byte, id byte) uint64 {
	val, ok := v2field(body, id, wt8)
	if !ok {
		return 0
	}
	return binary.BigEndian.Uint64(val)
}

func v2bool(body []byte, id byte) bool {
	val, ok := v2field(body, id, wt1)
	return ok && val[0] != 0
}

func v2taskID(body []byte, id byte) types.TaskID {
	val, ok := v2field(body, id, wtLen)
	if !ok || len(val) != 12 {
		return types.TaskID{}
	}
	return types.TaskID{
		Worker: types.WorkerID(int32(binary.BigEndian.Uint32(val))),
		Seq:    binary.BigEndian.Uint64(val[4:]),
	}
}

func v2cont(body []byte, id byte) types.Continuation {
	val, ok := v2field(body, id, wtLen)
	if !ok || len(val) != 16 {
		return types.Continuation{}
	}
	return types.Continuation{
		Task: types.TaskID{
			Worker: types.WorkerID(int32(binary.BigEndian.Uint32(val))),
			Seq:    binary.BigEndian.Uint64(val[4:]),
		},
		Slot: int32(binary.BigEndian.Uint32(val[12:])),
	}
}

func v2tc(body []byte, id byte) TraceCtx {
	val, ok := v2field(body, id, wtLen)
	if !ok || len(val) != 13 {
		return TraceCtx{}
	}
	return TraceCtx{
		Parent: types.TaskID{
			Worker: types.WorkerID(int32(binary.BigEndian.Uint32(val))),
			Seq:    binary.BigEndian.Uint64(val[4:]),
		},
		Flags: val[12],
	}
}

// ---- Counted field content ------------------------------------------------

// readCounted decodes a wtLen field's content: an explicit u32 element
// count, then that many elements of at least minElem bytes each, read by
// elem. The content must be consumed exactly (an extension never grows an
// existing field — it adds a new field id), and the count is checked
// against the bytes present before anything is allocated.
func readCounted[T any](b []byte, minElem int, elem func(*reader) T) ([]T, error) {
	r := reader{b: b}
	n := int(r.u32())
	if r.err == nil && n > r.rem()/minElem {
		r.fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	out := make([]T, n)
	for i := range out {
		out[i] = elem(&r)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, errShortFrame
	}
	return out, nil
}

func (r *reader) hist() HistState {
	return HistState{Kind: r.i32(), Count: r.i64(), Sum: r.i64(), Counts: r.i64s()}
}

func (r *reader) taskCkpt() TaskCkpt {
	return TaskCkpt{Task: r.taskID(), Seq: r.u64(), Data: r.blob()}
}

func (r *reader) span() Span {
	return Span{
		Kind:   r.u8(),
		Flags:  r.u8(),
		Worker: r.worker(),
		Task:   r.taskID(),
		Parent: r.taskID(),
		Link:   r.taskID(),
		Peer:   r.worker(),
		Start:  r.i64(),
		End:    r.i64(),
	}
}

// ---- Arena ----------------------------------------------------------------

// arenaSize fits a maximum UDP datagram with headroom.
const arenaSize = 64 << 10

// Arena is a pooled, reference-counted receive buffer. The UDP read loop
// reads one datagram into an arena, hands every frame in it out as a view
// (each view holding one reference), drops its own reference, and the
// buffer returns to the pool when the last view is freed — batched
// datagrams share one buffer with no copies.
type Arena struct {
	buf  []byte
	refs atomic.Int32
}

var arenaPool = sync.Pool{New: func() any { return &Arena{buf: make([]byte, arenaSize)} }}

// NewArena draws an arena from the pool with one reference (the
// caller's). Release it once the datagram's frames have been handed off.
func NewArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.refs.Store(1)
	return a
}

// Bytes is the arena's full backing buffer, for the transport to read a
// datagram into.
func (a *Arena) Bytes() []byte { return a.buf }

// Retain adds a reference.
func (a *Arena) Retain() { a.refs.Add(1) }

// Release drops a reference, returning the arena to the pool when the
// count reaches zero. The caller's data aliases die with the reference.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 {
		arenaPool.Put(a)
	}
}

// ---- View -----------------------------------------------------------------

// View is a decoded-in-place v2 payload: a tag plus the raw field-keyed
// body, still sitting in the receive buffer. Typed accessors (AsArg and
// friends) read fields lazily without materializing a struct. A view
// envelope's final owner must call Envelope.Free (or View.Free) to drop
// the arena reference; Envelope.Materialize converts to an owned struct
// payload when the data must outlive the buffer.
type View struct {
	tag   byte
	body  []byte
	arena *Arena
}

var viewPool = sync.Pool{New: func() any { return new(View) }}

// Name returns the payload's message name (e.g. "StealRequest").
func (v *View) Name() string { return tagName(v.tag) }

// Materialize decodes the view into an owned struct payload through the
// typed accessors: strings, blobs and slices are copied out of the frame,
// so the result survives arena reuse.
func (v *View) Materialize() (any, error) {
	switch v.tag {
	case tStealRequest:
		return StealRequest{Thief: StealRequestView{v.body}.Thief()}, nil
	case tStealReply:
		s := StealReplyView{v.body}
		m := StealReply{OK: s.OK()}
		if val, ok := v2field(s.b, fSRpTask, wtLen); ok {
			var err error
			if m.Task, err = (ClosureView{val}).materialize(); err != nil {
				return nil, err
			}
		}
		return m, nil
	case tStealConfirm:
		return StealConfirm{Record: StealConfirmView{v.body}.Record()}, nil
	case tArg:
		a := ArgView{v.body}
		val, err := a.Val()
		if err != nil {
			return nil, err
		}
		return Arg{Cont: a.Cont(), Val: val, Crossed: a.Crossed(), TC: a.TC()}, nil
	case tHeartbeat:
		h := HeartbeatView{v.body}
		return Heartbeat{Worker: h.Worker(), SendNS: h.SendNS()}, nil
	case tAck:
		return Ack{Seq: AckView{v.body}.Seq()}, nil
	case tStatReport:
		s := StatReportView{v.body}
		m := StatReport{Ver: s.Ver(), Worker: s.Worker(), Deque: s.Deque(),
			SpanSeq: s.SpanSeq(), ClockOffNS: s.ClockOffNS()}
		var errs [4]error
		m.Counters, errs[0] = s.Counters()
		m.Hists, errs[1] = s.Hists()
		m.Ckpts, errs[2] = s.Ckpts()
		m.Spans, errs[3] = s.Spans()
		if err := errors.Join(errs[:]...); err != nil {
			return nil, err
		}
		return m, nil
	}
	return nil, fmt.Errorf("wire: no v2 shape for %s", tagName(v.tag))
}

// Free releases the view's arena reference and recycles the view. The
// view, and anything its accessors returned without copying, must not be
// used afterwards.
func (v *View) Free() {
	if v == nil {
		return
	}
	v.arena.Release()
	*v = View{}
	viewPool.Put(v)
}

// Materialize swaps a view payload for its owned struct form, releasing
// the view; envelopes that already carry structs are untouched. After a
// successful return the envelope no longer references the receive buffer.
func (e *Envelope) Materialize() error {
	v, ok := e.Payload.(*View)
	if !ok {
		return nil
	}
	p, err := v.Materialize()
	if err != nil {
		return err
	}
	e.Payload = p
	v.Free()
	return nil
}

// DecodeView parses one frame, leaving hot v2 payloads in place: the
// envelope's Payload is a pooled *View whose accessors read frame's bytes
// directly. When arena is non-nil the view takes one reference on it;
// either way the caller must keep frame's backing memory alive until the
// envelope's final owner frees or materializes it. Cold tags decode their
// v1 body into an owned struct, copying everything they retain. A frame
// whose version byte does not match its tag's format is rejected.
func DecodeView(frame []byte, arena *Arena) (env *Envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			env, err = nil, fmt.Errorf("wire: decode panic: %v", r)
		}
	}()
	if len(frame) < frameHeaderLen {
		return nil, fmt.Errorf("wire: short frame (%d bytes)", len(frame))
	}
	n := binary.BigEndian.Uint32(frame[:4])
	if int64(n) != int64(len(frame)-4) {
		return nil, fmt.Errorf("wire: frame length mismatch: header %d, body %d", n, len(frame)-4)
	}
	ver, tag := frame[4], frame[5]
	if ver != frameVersion && ver != frameVersionV2 {
		return nil, fmt.Errorf("%w %d", errFrameVersion, ver)
	}
	if (ver == frameVersionV2) != v2Tag(tag) {
		return nil, fmt.Errorf("wire: decode %s: frame version %d is not this tag's format", tagName(tag), ver)
	}
	body := frame[frameHeaderLen:]
	var payload any
	if ver == frameVersionV2 {
		if err := validateV2(body); err != nil {
			return nil, fmt.Errorf("wire: decode %s: %w", tagName(tag), err)
		}
		v := viewPool.Get().(*View)
		v.tag, v.body, v.arena = tag, body, arena
		if arena != nil {
			arena.Retain()
		}
		payload = v
	} else {
		r := reader{b: body}
		payload = readPayload(&r, tag)
		if r.err == nil && r.off != len(r.b) {
			r.err = fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
		}
		if r.err != nil {
			return nil, fmt.Errorf("wire: decode %s: %w", tagName(tag), r.err)
		}
	}
	e := envelopePool.Get().(*Envelope)
	e.Job = types.JobID(int64(binary.BigEndian.Uint64(frame[6:14])))
	e.From = types.WorkerID(int32(binary.BigEndian.Uint32(frame[14:18])))
	e.To = types.WorkerID(int32(binary.BigEndian.Uint32(frame[18:22])))
	e.Seq = binary.BigEndian.Uint64(frame[22:30])
	e.Payload = payload
	return e, nil
}

// ---- Typed accessors ------------------------------------------------------

// StealRequestView reads a StealRequest in place.
type StealRequestView struct{ b []byte }

// AsStealRequest returns a typed accessor when the view is a StealRequest.
func (v *View) AsStealRequest() (StealRequestView, bool) {
	if v == nil || v.tag != tStealRequest {
		return StealRequestView{}, false
	}
	return StealRequestView{v.body}, true
}

// Thief is the requesting worker.
func (s StealRequestView) Thief() types.WorkerID {
	return types.WorkerID(int32(v2u32(s.b, fSRqThief)))
}

// StealReplyView reads a StealReply in place.
type StealReplyView struct{ b []byte }

// AsStealReply returns a typed accessor when the view is a StealReply.
func (v *View) AsStealReply() (StealReplyView, bool) {
	if v == nil || v.tag != tStealReply {
		return StealReplyView{}, false
	}
	return StealReplyView{v.body}, true
}

// OK reports whether the steal succeeded.
func (s StealReplyView) OK() bool { return v2bool(s.b, fSRpOK) }

// Task is the stolen closure (a zero-field view when the steal failed).
func (s StealReplyView) Task() ClosureView {
	val, _ := v2field(s.b, fSRpTask, wtLen)
	return ClosureView{val}
}

// ClosureView reads a wire Closure in place.
type ClosureView struct{ b []byte }

// ID is the task id.
func (c ClosureView) ID() types.TaskID { return v2taskID(c.b, fClID) }

// Fn is the task function name, interned so repeated decodes of the same
// job's handful of functions allocate nothing.
func (c ClosureView) Fn() string {
	val, ok := v2field(c.b, fClFn, wtLen)
	if !ok {
		return ""
	}
	return internName(val)
}

// AppendArgs decodes the argument slots onto dst (typically a pooled
// closure's recycled backing array) and returns the extended slice.
// Argument values are owned copies; a missing args field appends nothing.
// A nil dst gets a slice sized to the argument count.
func (c ClosureView) AppendArgs(dst []types.Value) ([]types.Value, error) {
	val, ok := v2field(c.b, fClArgs, wtLen)
	if !ok {
		return dst, nil
	}
	r := reader{b: val}
	n := int(r.u32())
	if r.err == nil && n > r.rem() { // a value is at least one tag byte
		r.fail()
	}
	if dst == nil && r.err == nil {
		dst = make([]types.Value, 0, n) // one allocation; present-but-empty stays non-nil
	}
	for i := 0; i < n && r.err == nil; i++ {
		dst = append(dst, r.value(0))
	}
	if r.err != nil {
		return dst, r.err
	}
	if r.off != len(r.b) {
		return dst, errShortFrame
	}
	return dst, nil
}

// Missing is the count of unfilled argument slots.
func (c ClosureView) Missing() int32 { return int32(v2u32(c.b, fClMissing)) }

// Cont is the continuation the task's result feeds.
func (c ClosureView) Cont() types.Continuation { return v2cont(c.b, fClCont) }

// NoSteal reports whether the closure is pinned to its worker.
func (c ClosureView) NoSteal() bool { return v2bool(c.b, fClNoSteal) }

// Ckpt returns the checkpoint blob without copying — the bytes alias the
// receive buffer and are valid only while the view is alive. ok
// distinguishes an absent blob from an empty one.
func (c ClosureView) Ckpt() (blob []byte, ok bool) { return v2field(c.b, fClCkpt, wtLen) }

// CkptSeq orders checkpoint blobs for the task.
func (c ClosureView) CkptSeq() uint64 { return v2u64(c.b, fClCkptSeq) }

// TC is the closure's trace context.
func (c ClosureView) TC() TraceCtx { return v2tc(c.b, fClTC) }

// materialize copies the closure out of the frame. It checks the nested
// sub-body's framing first: the accessors stop at the field they want, so
// without the walk a damaged tail would go unnoticed.
func (c ClosureView) materialize() (Closure, error) {
	if err := validateV2(c.b); err != nil {
		return Closure{}, err
	}
	args, err := c.AppendArgs(nil)
	if err != nil {
		return Closure{}, err
	}
	cl := Closure{ID: c.ID(), Fn: c.Fn(), Args: args, Missing: c.Missing(), Cont: c.Cont(),
		NoSteal: c.NoSteal(), CkptSeq: c.CkptSeq(), TC: c.TC()}
	if blob, ok := c.Ckpt(); ok {
		cl.Ckpt = append([]byte{}, blob...)
	}
	return cl, nil
}

// StealConfirmView reads a StealConfirm in place.
type StealConfirmView struct{ b []byte }

// AsStealConfirm returns a typed accessor when the view is a StealConfirm.
func (v *View) AsStealConfirm() (StealConfirmView, bool) {
	if v == nil || v.tag != tStealConfirm {
		return StealConfirmView{}, false
	}
	return StealConfirmView{v.body}, true
}

// Record is the confirmed steal record's id.
func (s StealConfirmView) Record() types.TaskID { return v2taskID(s.b, fSCRecord) }

// ArgView reads an Arg in place.
type ArgView struct{ b []byte }

// AsArg returns a typed accessor when the view is an Arg.
func (v *View) AsArg() (ArgView, bool) {
	if v == nil || v.tag != tArg {
		return ArgView{}, false
	}
	return ArgView{v.body}, true
}

// Cont is the destination argument slot.
func (a ArgView) Cont() types.Continuation { return v2cont(a.b, fArgCont) }

// Val decodes the delivered value. Scalar values box without copying
// frame bytes; strings, byte slices, and nested values are owned copies,
// so the result may outlive the view.
func (a ArgView) Val() (types.Value, error) {
	val, ok := v2field(a.b, fArgVal, wtLen)
	if !ok {
		return nil, nil
	}
	r := reader{b: val}
	v := r.value(0)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, errShortFrame
	}
	return v, nil
}

// Crossed reports whether the value crossed a worker boundary en route.
func (a ArgView) Crossed() bool { return v2bool(a.b, fArgCrossed) }

// TC is the producing task's trace context.
func (a ArgView) TC() TraceCtx { return v2tc(a.b, fArgTC) }

// HeartbeatView reads a Heartbeat in place.
type HeartbeatView struct{ b []byte }

// AsHeartbeat returns a typed accessor when the view is a Heartbeat.
func (v *View) AsHeartbeat() (HeartbeatView, bool) {
	if v == nil || v.tag != tHeartbeat {
		return HeartbeatView{}, false
	}
	return HeartbeatView{v.body}, true
}

// Worker is the worker reporting liveness.
func (h HeartbeatView) Worker() types.WorkerID {
	return types.WorkerID(int32(v2u32(h.b, fHBWorker)))
}

// SendNS is the sender's clock at send time (zero when not tracing).
func (h HeartbeatView) SendNS() int64 { return int64(v2u64(h.b, fHBSendNS)) }

// AckView reads an Ack in place.
type AckView struct{ b []byte }

// AsAck returns a typed accessor when the view is an Ack.
func (v *View) AsAck() (AckView, bool) {
	if v == nil || v.tag != tAck {
		return AckView{}, false
	}
	return AckView{v.body}, true
}

// Seq is the acknowledged sequence number.
func (a AckView) Seq() uint64 { return v2u64(a.b, fAckSeq) }

// StatReportView reads a StatReport in place. The bulky slices
// (counters, histograms, checkpoints, spans) decode into owned copies —
// consumers that fold them retain them anyway.
type StatReportView struct{ b []byte }

// AsStatReport returns a typed accessor when the view is a StatReport.
func (v *View) AsStatReport() (StatReportView, bool) {
	if v == nil || v.tag != tStatReport {
		return StatReportView{}, false
	}
	return StatReportView{v.body}, true
}

// Ver is the report layout version.
func (s StatReportView) Ver() int32 { return int32(v2u32(s.b, fStVer)) }

// Worker is the reporting worker.
func (s StatReportView) Worker() types.WorkerID {
	return types.WorkerID(int32(v2u32(s.b, fStWorker)))
}

// Deque is the ready-deque depth at report time.
func (s StatReportView) Deque() int32 { return int32(v2u32(s.b, fStDeque)) }

// SpanSeq is the span batch sequence number.
func (s StatReportView) SpanSeq() uint64 { return v2u64(s.b, fStSpanSeq) }

// ClockOffNS is the worker's clock-offset estimate.
func (s StatReportView) ClockOffNS() int64 { return int64(v2u64(s.b, fStOffNS)) }

// Counters decodes the counter vector (nil when absent).
func (s StatReportView) Counters() ([]int64, error) {
	return statSlice(s.b, fStCount, 8, (*reader).i64)
}

// Hists decodes the histogram states (nil when absent).
func (s StatReportView) Hists() ([]HistState, error) {
	return statSlice(s.b, fStHists, 21, (*reader).hist) // kind + count + sum + nil-flag
}

// Ckpts decodes the piggybacked checkpoint blobs (nil when absent).
func (s StatReportView) Ckpts() ([]TaskCkpt, error) {
	return statSlice(s.b, fStCkpts, 21, (*reader).taskCkpt) // taskID + seq + blob flag
}

// Spans decodes the sealed span batch (nil when absent).
func (s StatReportView) Spans() ([]Span, error) {
	return statSlice(s.b, fStSpans, spanWireLen, (*reader).span)
}

func statSlice[T any](body []byte, id byte, minElem int, elem func(*reader) T) ([]T, error) {
	val, ok := v2field(body, id, wtLen)
	if !ok {
		return nil, nil
	}
	return readCounted(val, minElem, elem)
}
