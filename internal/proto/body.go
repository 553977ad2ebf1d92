package proto

// Binary bodies for the two hot-path payloads.
//
// InferenceRequest and InferenceReply cross the TCP wire on every remote
// service call, and encoding/json dominated that path: a JSON parse per
// request on the server, a marshal per reply. Their bodies therefore use a
// fixed binary layout, written straight into the frame buffer by
// AppendFrame and recognised by Decode through a leading tag byte that no
// JSON text can begin with. Every other payload keeps its JSON body.
//
//	u8     tag: bodyTagRequest | bodyTagReply
//	request: str RequestUID | str ClientUID | str Model | str Prompt |
//	         int MaxTokens | u8 NoBatch (0|1) | stamp SentAt
//	reply:   str RequestUID | str ServiceUID | str Model | str Text |
//	         str Err | int PromptTokens | int OutputTokens |
//	         stamp ReceivedAt | stamp DequeuedAt | stamp InferStartAt |
//	         stamp InferEndAt | stamp RepliedAt
//
//	str   = uvarint length | bytes
//	int   = zig-zag varint (encoding/binary PutVarint)
//	stamp = u8 set (0: zero time, 1: set) | i64 unix seconds |
//	        u32 nanoseconds — 13 fixed bytes, big endian, all zero when unset
//
// The body must end exactly at the last field. Malformed bodies decode to a
// wrapped ErrBadFrame; no input can panic the decoder or make it read past
// the body slice.

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Body tags. JSON text starts with whitespace, '{', '[', '"', '-', a digit
// or a literal's first letter, never with a control byte below 0x09.
const (
	bodyTagRequest byte = 0x01
	bodyTagReply   byte = 0x02
)

// stampLen is the fixed encoded size of one time stamp.
const stampLen = 1 + 8 + 4

// isBinaryBody reports whether body carries a binary request/reply layout.
func isBinaryBody(body []byte) bool {
	return len(body) > 0 && (body[0] == bodyTagRequest || body[0] == bodyTagReply)
}

// binaryBodyLen returns the encoded size of a payload with a binary
// layout, and false for every other payload.
func binaryBodyLen(v any) (int, bool) {
	switch b := v.(type) {
	case InferenceRequest:
		return 1 + strLen(b.RequestUID) + strLen(b.ClientUID) + strLen(b.Model) + strLen(b.Prompt) +
			intLen(b.MaxTokens) + 1 + stampLen, true
	case InferenceReply:
		return 1 + strLen(b.RequestUID) + strLen(b.ServiceUID) + strLen(b.Model) + strLen(b.Text) +
			strLen(b.Err) + intLen(b.PromptTokens) + intLen(b.OutputTokens) + 5*stampLen, true
	}
	return 0, false
}

// appendBinaryBody appends the binary layout of v to dst. v must be a
// payload for which binaryBodyLen reports true.
func appendBinaryBody(dst []byte, v any) []byte {
	switch b := v.(type) {
	case InferenceRequest:
		dst = append(dst, bodyTagRequest)
		dst = appendStr(dst, b.RequestUID)
		dst = appendStr(dst, b.ClientUID)
		dst = appendStr(dst, b.Model)
		dst = appendStr(dst, b.Prompt)
		dst = binary.AppendVarint(dst, int64(b.MaxTokens))
		var noBatch byte
		if b.NoBatch {
			noBatch = 1
		}
		dst = append(dst, noBatch)
		return appendStamp(dst, b.SentAt)
	case InferenceReply:
		dst = append(dst, bodyTagReply)
		dst = appendStr(dst, b.RequestUID)
		dst = appendStr(dst, b.ServiceUID)
		dst = appendStr(dst, b.Model)
		dst = appendStr(dst, b.Text)
		dst = appendStr(dst, b.Err)
		dst = binary.AppendVarint(dst, int64(b.PromptTokens))
		dst = binary.AppendVarint(dst, int64(b.OutputTokens))
		dst = appendStamp(dst, b.Timing.ReceivedAt)
		dst = appendStamp(dst, b.Timing.DequeuedAt)
		dst = appendStamp(dst, b.Timing.InferStartAt)
		dst = appendStamp(dst, b.Timing.InferEndAt)
		return appendStamp(dst, b.Timing.RepliedAt)
	}
	panic(fmt.Sprintf("proto: no binary layout for %T", v))
}

// decodeRequestBody fills out from a binary request body. Every string
// field is one exact-size copy, so the result shares no memory with body
// (or with other fields). out is written only on success and does not
// escape.
func decodeRequestBody(body []byte, out *InferenceRequest) error {
	if len(body) == 0 || body[0] != bodyTagRequest {
		return fmt.Errorf("%w: body is not a binary request", ErrBadFrame)
	}
	r := bodyReader{p: body[1:]}
	var v InferenceRequest
	v.RequestUID = r.str("request_uid")
	v.ClientUID = r.str("client_uid")
	v.Model = r.str("model")
	v.Prompt = r.str("prompt")
	v.MaxTokens = r.int("max_tokens")
	v.NoBatch = r.flag("no_batch")
	v.SentAt = r.stamp("sent_at")
	if err := r.done(); err != nil {
		return err
	}
	*out = v
	return nil
}

// decodeReplyBody is decodeRequestBody for a binary reply body.
func decodeReplyBody(body []byte, out *InferenceReply) error {
	if len(body) == 0 || body[0] != bodyTagReply {
		return fmt.Errorf("%w: body is not a binary reply", ErrBadFrame)
	}
	r := bodyReader{p: body[1:]}
	var v InferenceReply
	v.RequestUID = r.str("request_uid")
	v.ServiceUID = r.str("service_uid")
	v.Model = r.str("model")
	v.Text = r.str("text")
	v.Err = r.str("err")
	v.PromptTokens = r.int("prompt_tokens")
	v.OutputTokens = r.int("output_tokens")
	v.Timing.ReceivedAt = r.stamp("received_at")
	v.Timing.DequeuedAt = r.stamp("dequeued_at")
	v.Timing.InferStartAt = r.stamp("infer_start_at")
	v.Timing.InferEndAt = r.stamp("infer_end_at")
	v.Timing.RepliedAt = r.stamp("replied_at")
	if err := r.done(); err != nil {
		return err
	}
	*out = v
	return nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// intLen is the zig-zag varint size of v, matching binary.AppendVarint.
func intLen(v int) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStamp(dst []byte, t time.Time) []byte {
	var b [stampLen]byte
	if !t.IsZero() {
		b[0] = 1
		binary.BigEndian.PutUint64(b[1:9], uint64(t.Unix()))
		binary.BigEndian.PutUint32(b[9:13], uint32(t.Nanosecond()))
	}
	return append(dst, b[:]...)
}

// bodyReader consumes a binary body field by field. The first failure
// sticks: later reads return zero values and done reports it.
type bodyReader struct {
	p   []byte
	err error
}

func (r *bodyReader) fail(field, what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s %s", ErrBadFrame, what, field)
	}
}

func (r *bodyReader) str(field string) string {
	if r.err != nil {
		return ""
	}
	n, k := binary.Uvarint(r.p)
	if k <= 0 || n > uint64(len(r.p)-k) {
		r.fail(field, "truncated")
		return ""
	}
	end := k + int(n)
	s := string(r.p[k:end])
	r.p = r.p[end:]
	return s
}

func (r *bodyReader) int(field string) int {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.p)
	if k <= 0 || int64(int(v)) != v {
		r.fail(field, "bad varint")
		return 0
	}
	r.p = r.p[k:]
	return int(v)
}

func (r *bodyReader) flag(field string) bool {
	if r.err != nil {
		return false
	}
	if len(r.p) < 1 || r.p[0] > 1 {
		r.fail(field, "bad flag")
		return false
	}
	v := r.p[0] == 1
	r.p = r.p[1:]
	return v
}

func (r *bodyReader) stamp(field string) time.Time {
	if r.err != nil {
		return time.Time{}
	}
	if len(r.p) < stampLen {
		r.fail(field, "truncated")
		return time.Time{}
	}
	set := r.p[0]
	sec := int64(binary.BigEndian.Uint64(r.p[1:9]))
	nsec := binary.BigEndian.Uint32(r.p[9:13])
	r.p = r.p[stampLen:]
	switch {
	case set == 0 && sec == 0 && nsec == 0:
		return time.Time{}
	case set == 1 && nsec < 1e9:
		return time.Unix(sec, int64(nsec)).UTC()
	}
	r.fail(field, "bad stamp")
	return time.Time{}
}

func (r *bodyReader) done() error {
	if r.err == nil && len(r.p) != 0 {
		r.err = fmt.Errorf("%w: %d trailing body bytes", ErrBadFrame, len(r.p))
	}
	return r.err
}
