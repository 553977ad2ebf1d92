package proto

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// bodyAlphabet mixes ASCII, JSON escapes, control bytes and multi-byte
// runes. Strings are valid UTF-8: JSON cannot carry arbitrary bytes (it
// substitutes U+FFFD), so only valid text can be compared against it.
var bodyAlphabet = []rune("abcXYZ019 .-_\"\\/\n\t\x00\x01\u00e9\u4e16\U0001F600")

func randString(r *rand.Rand) string {
	if r.Intn(4) == 0 {
		return ""
	}
	n := r.Intn(40)
	if r.Intn(10) == 0 {
		n = 200 + r.Intn(400) // multi-byte uvarint length
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(bodyAlphabet[r.Intn(len(bodyAlphabet))])
	}
	return sb.String()
}

func randInt(r *rand.Rand) int {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return -r.Intn(1000)
	case 2:
		return math.MinInt64
	case 3:
		return math.MaxInt64
	}
	return r.Intn(1 << 20)
}

// randTime returns the zero time, or a stamp in JSON's representable
// years (1..9999) with nanosecond precision in a random zone.
func randTime(r *rand.Rand) time.Time {
	if r.Intn(4) == 0 {
		return time.Time{}
	}
	lo := time.Date(1, 1, 1, 0, 0, 1, 0, time.UTC).Unix()
	hi := time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC).Unix()
	t := time.Unix(lo+r.Int63n(hi-lo), r.Int63n(1e9))
	if r.Intn(2) == 0 {
		return t.In(time.FixedZone("x", (r.Intn(27)-13)*3600))
	}
	return t.UTC()
}

func randRequest(r *rand.Rand) InferenceRequest {
	return InferenceRequest{
		RequestUID: randString(r), ClientUID: randString(r), Model: randString(r), Prompt: randString(r),
		MaxTokens: randInt(r), NoBatch: r.Intn(2) == 0, SentAt: randTime(r),
	}
}

func randReply(r *rand.Rand) InferenceReply {
	return InferenceReply{
		RequestUID: randString(r), ServiceUID: randString(r), Model: randString(r), Text: randString(r),
		PromptTokens: randInt(r), OutputTokens: randInt(r), Err: randString(r),
		Timing: Timing{
			ReceivedAt: randTime(r), DequeuedAt: randTime(r), InferStartAt: randTime(r),
			InferEndAt: randTime(r), RepliedAt: randTime(r),
		},
	}
}

// sameStamp compares at nanosecond precision and keeps zero times zero.
func sameStamp(a, b time.Time) bool { return a.Equal(b) && a.IsZero() == b.IsZero() }

func sameRequest(a, b InferenceRequest) bool {
	return a.RequestUID == b.RequestUID && a.ClientUID == b.ClientUID && a.Model == b.Model &&
		a.Prompt == b.Prompt && a.MaxTokens == b.MaxTokens && a.NoBatch == b.NoBatch && sameStamp(a.SentAt, b.SentAt)
}

func sameReply(a, b InferenceReply) bool {
	return a.RequestUID == b.RequestUID && a.ServiceUID == b.ServiceUID && a.Model == b.Model &&
		a.Text == b.Text && a.Err == b.Err && a.PromptTokens == b.PromptTokens && a.OutputTokens == b.OutputTokens &&
		sameStamp(a.Timing.ReceivedAt, b.Timing.ReceivedAt) && sameStamp(a.Timing.DequeuedAt, b.Timing.DequeuedAt) &&
		sameStamp(a.Timing.InferStartAt, b.Timing.InferStartAt) && sameStamp(a.Timing.InferEndAt, b.Timing.InferEndAt) &&
		sameStamp(a.Timing.RepliedAt, b.Timing.RepliedAt)
}

// wireRoundTrip frames body, decodes the frame, and decodes the body into
// out, checking the frame carries a binary body of the advertised length.
func wireRoundTrip(t *testing.T, kind Kind, body, out any) {
	t.Helper()
	env, err := NewEnvelope(kind, 1, "a", "b", t0, body)
	if err != nil {
		t.Fatal(err)
	}
	want := env.EncodedBodyLen()
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Body) != want {
		t.Fatalf("AppendFrame left a %d-byte Body, EncodedBodyLen says %d", len(env.Body), want)
	}
	got, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !isBinaryBody(got.Body) || len(got.Body) != want {
		t.Fatalf("wire body: binary=%v len=%d, want binary len %d", isBinaryBody(got.Body), len(got.Body), want)
	}
	if err := got.Decode(kind, out); err != nil {
		t.Fatal(err)
	}
}

func jsonRoundTrip(t *testing.T, body, out any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryBodyMatchesJSON is the codec property: for random requests
// and replies the binary wire round trip yields exactly what the JSON
// round trip does, and both equal the original.
func TestBinaryBodyMatchesJSON(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		req := randRequest(r)
		var bin, js InferenceRequest
		wireRoundTrip(t, KindRequest, req, &bin)
		jsonRoundTrip(t, req, &js)
		if !sameRequest(bin, js) || !sameRequest(bin, req) {
			t.Fatalf("request %d:\n binary %+v\n json   %+v\n sent   %+v", i, bin, js, req)
		}

		rep := randReply(r)
		var binRep, jsRep InferenceReply
		wireRoundTrip(t, KindReply, rep, &binRep)
		jsonRoundTrip(t, rep, &jsRep)
		if !sameReply(binRep, jsRep) || !sameReply(binRep, rep) {
			t.Fatalf("reply %d:\n binary %+v\n json   %+v\n sent   %+v", i, binRep, jsRep, rep)
		}
	}
}

// TestBinaryBodyWireBodyAgreesWithFrame pins the three views of the
// wire body to one encoding: WireBody, AppendFrame's Body view, and
// EncodedBodyLen (which must not allocate).
func TestBinaryBodyWireBodyAgreesWithFrame(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, body := range []any{randRequest(r), randReply(r), InferenceRequest{}, InferenceReply{}} {
		env, err := NewEnvelope(KindRequest, 1, "a", "b", t0, body)
		if err != nil {
			t.Fatal(err)
		}
		n := env.EncodedBodyLen()
		if allocs := testing.AllocsPerRun(10, func() { _ = env.EncodedBodyLen() }); allocs != 0 {
			t.Fatalf("EncodedBodyLen allocates %.0f objects", allocs)
		}
		framed := env
		if _, err := AppendFrame(nil, &framed); err != nil {
			t.Fatal(err)
		}
		wire, err := env.WireBody()
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) != n || !bytes.Equal(wire, framed.Body) {
			t.Fatalf("%T: WireBody %d bytes, frame body %d bytes, EncodedBodyLen %d", body, len(wire), len(framed.Body), n)
		}
		if cap(framed.Body) != len(framed.Body) {
			t.Fatalf("frame body view not capacity-clipped: len %d cap %d", len(framed.Body), cap(framed.Body))
		}
	}
}

// TestBinaryBodyWrongTarget rejects a binary body decoded into a payload
// type other than the one its tag names.
func TestBinaryBodyWrongTarget(t *testing.T) {
	env, _ := NewEnvelope(KindRequest, 1, "a", "b", t0, InferenceRequest{Prompt: "p"})
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	var rep InferenceReply
	if err := got.Decode(KindRequest, &rep); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("request body into *InferenceReply: %v, want ErrBadFrame", err)
	}
	var hb Heartbeat
	if err := got.Decode(KindRequest, &hb); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("request body into *Heartbeat: %v, want ErrBadFrame", err)
	}
}

// TestBinaryBodyDecodeAllocs pins the decode cost: one allocation per
// non-empty string field and none for the destination.
func TestBinaryBodyDecodeAllocs(t *testing.T) {
	reqEnv, _ := NewEnvelope(KindRequest, 1, "a", "b", t0, InferenceRequest{
		RequestUID: "req.0001", ClientUID: "client.0001", Model: "noop", Prompt: strings.Repeat("p", 1024), SentAt: t0})
	repEnv, _ := NewEnvelope(KindReply, 1, "b", "a", t0, InferenceReply{
		RequestUID: "req.0001", ServiceUID: "svc.0001", Model: "noop", Timing: Timing{ReceivedAt: t0, RepliedAt: t0}})
	req, err := reqEnv.WireBody()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := repEnv.WireBody()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		var v InferenceRequest
		if err := decodeRequestBody(req, &v); err != nil {
			t.Fatal(err)
		}
	}); n != 4 {
		t.Errorf("request decode: %.0f allocs, want 4 (one per string field)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		var v InferenceReply
		if err := decodeReplyBody(rep, &v); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("reply decode: %.0f allocs, want 3 (one per non-empty string field)", n)
	}
}

// overlaps reports whether two strings share any backing byte.
func overlaps(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(unsafe.StringData(a))), uintptr(unsafe.Pointer(unsafe.StringData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

// TestBinaryBodyStringsOwnTheirBytes is the retention regression: each
// decoded string is its own exact-size copy. Slicing every field out of
// one copy of the body would let a long-lived RequestUID (the serving
// dedup ring keeps 1024 replies) pin its whole prompt, and aliasing the
// frame would hand out bytes of a recycled read buffer. The test keeps
// only the RequestUIDs of many decoded large-prompt requests and checks
// that the heap does not keep their prompts alive.
func TestBinaryBodyStringsOwnTheirBytes(t *testing.T) {
	const n, promptLen = 64, 256 << 10
	env, _ := NewEnvelope(KindRequest, 1, "a", "b", t0, InferenceRequest{
		RequestUID: "req.0001", ClientUID: "client.0001", Model: "noop", Prompt: strings.Repeat("p", promptLen)})
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	frameStr := unsafe.String(&frame[0], len(frame))
	uids := make([]string, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range uids {
		got, err := DecodeFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		var req InferenceRequest
		if err := got.Decode(KindRequest, &req); err != nil {
			t.Fatal(err)
		}
		for _, f := range []string{req.RequestUID, req.ClientUID, req.Model, req.Prompt} {
			if overlaps(f, frameStr) {
				t.Fatal("a decoded field aliases the frame buffer")
			}
		}
		if overlaps(req.RequestUID, req.Prompt) {
			t.Fatal("RequestUID shares backing bytes with Prompt")
		}
		uids[i] = req.RequestUID
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > n*promptLen/4 {
		t.Fatalf("%d decoded RequestUIDs keep %d heap bytes alive: they pin their %d-byte prompts", n, retained, promptLen)
	}
	runtime.KeepAlive(uids)
}

// FuzzDecodeBody asserts the binary body decoder fails only with a wrapped
// ErrBadFrame, never panics, and never reads past the body: it decodes a
// capacity-clipped copy (any over-read panics) and a copy followed by
// guard bytes (an over-read up to capacity would change the result).
// Whatever decodes must re-encode to a body that decodes to the same value.
func FuzzDecodeBody(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, body := range []any{randRequest(r), randReply(r), InferenceRequest{}, InferenceReply{Text: "ok"}} {
		env, _ := NewEnvelope(KindReply, 1, "a", "b", t0, body)
		wire, err := env.WireBody()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
	}
	f.Add([]byte{bodyTagRequest})
	f.Add([]byte{bodyTagReply, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if !isBinaryBody(data) {
			return // a JSON body: not this codec's input
		}
		clipped := append([]byte(nil), data...)
		clipped = clipped[:len(clipped):len(clipped)]
		guarded := append(append(make([]byte, 0, len(data)+16), data...), bytes.Repeat([]byte{0x01}, 16)...)[:len(data)]
		for _, target := range []func() any{
			func() any { return new(InferenceRequest) },
			func() any { return new(InferenceReply) },
		} {
			out, again := target(), target()
			err := Envelope{Kind: KindReply, Body: clipped}.Decode(KindReply, out)
			errGuarded := Envelope{Kind: KindReply, Body: guarded}.Decode(KindReply, again)
			if (err == nil) != (errGuarded == nil) || !reflect.DeepEqual(out, again) {
				t.Fatalf("decode depends on bytes past the body: %v vs %v", err, errGuarded)
			}
			if err != nil {
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("non-typed error: %v", err)
				}
				continue
			}
			env, err := NewEnvelope(KindReply, 1, "a", "b", t0, reflect.ValueOf(out).Elem().Interface())
			if err != nil {
				t.Fatal(err)
			}
			wire, err := env.WireBody()
			if err != nil {
				t.Fatal(err)
			}
			back := target()
			if err := (Envelope{Kind: KindReply, Body: wire}).Decode(KindReply, back); err != nil || !reflect.DeepEqual(out, back) {
				t.Fatalf("re-encode does not round-trip (%v): %+v vs %+v", err, out, back)
			}
		}
	})
}
