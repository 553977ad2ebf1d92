package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2025, 3, 17, 12, 0, 0, 0, time.UTC)

func TestEnvelopeRoundTrip(t *testing.T) {
	req := InferenceRequest{
		RequestUID: "req.0001", ClientUID: "task.0002",
		Model: "llama-8b", Prompt: "hello", MaxTokens: 16, SentAt: t0,
	}
	env, err := NewEnvelope(KindRequest, 7, "task.0002", "service.0001", t0, req)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != KindRequest || env.ID != 7 || env.From != "task.0002" {
		t.Fatalf("envelope header mismatch: %+v", env)
	}
	var got InferenceRequest
	if err := env.Decode(KindRequest, &got); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
}

func TestDecodeWrongKind(t *testing.T) {
	env, _ := NewEnvelope(KindReply, 1, "a", "b", t0, InferenceReply{})
	var req InferenceRequest
	if err := env.Decode(KindRequest, &req); err == nil {
		t.Fatal("Decode accepted mismatched kind")
	}
}

// TestDecodeBadBody rejects request and reply bodies that are not the
// binary layout — malformed JSON, well-formed JSON (no peer sends JSON
// requests or replies) and an empty body — with a wrapped ErrBadFrame.
func TestDecodeBadBody(t *testing.T) {
	for _, body := range []string{`{"max_tokens":"nope"}`, `{"prompt":"hi","max_tokens":16}`, ``} {
		env := Envelope{Kind: KindRequest, Body: []byte(body)}
		var req InferenceRequest
		if err := env.Decode(KindRequest, &req); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("request body %q: %v, want ErrBadFrame", body, err)
		}
		env = Envelope{Kind: KindReply, Body: []byte(body)}
		var rep InferenceReply
		if err := env.Decode(KindReply, &rep); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("reply body %q: %v, want ErrBadFrame", body, err)
		}
	}
}

func TestNewEnvelopeUnmarshalable(t *testing.T) {
	if _, err := NewEnvelope(KindRequest, 1, "a", "b", t0, make(chan int)); err == nil {
		t.Fatal("NewEnvelope accepted unmarshalable body")
	}
}

func TestTimingDecomposition(t *testing.T) {
	tm := Timing{
		ReceivedAt:   t0,
		DequeuedAt:   t0.Add(10 * time.Millisecond),
		InferStartAt: t0.Add(12 * time.Millisecond),
		InferEndAt:   t0.Add(1012 * time.Millisecond),
		RepliedAt:    t0.Add(1015 * time.Millisecond),
	}
	if q := tm.QueueTime(); q != 10*time.Millisecond {
		t.Fatalf("QueueTime = %v", q)
	}
	if it := tm.InferTime(); it != time.Second {
		t.Fatalf("InferTime = %v", it)
	}
	if st := tm.ServiceTime(); st != 15*time.Millisecond {
		t.Fatalf("ServiceTime = %v, want 15ms", st)
	}
}

// readEnvelope reads and decodes one binary frame from r.
func readEnvelope(r io.Reader) (Envelope, error) {
	var buf []byte
	payload, err := ReadFramePayload(r, &buf)
	if err != nil {
		return Envelope{}, err
	}
	return DecodeFrame(payload)
}

// writeEnvelope appends env to w as one binary frame.
func writeEnvelope(w *bytes.Buffer, env Envelope) error {
	frame, err := AppendFrame(nil, &env)
	if err != nil {
		return err
	}
	w.Write(frame)
	return nil
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	env, _ := NewEnvelope(KindHeartbeat, 3, "service.0001", "", t0,
		Heartbeat{ServiceUID: "service.0001", At: t0, QueueDepth: 4, Busy: true})
	if err := writeEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := readEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindHeartbeat || got.ID != 3 || got.From != "service.0001" {
		t.Fatalf("frame round trip mismatch: %+v", got)
	}
	var hb Heartbeat
	if err := got.Decode(KindHeartbeat, &hb); err != nil {
		t.Fatal(err)
	}
	if hb.QueueDepth != 4 || !hb.Busy {
		t.Fatalf("heartbeat body mismatch: %+v", hb)
	}
}

func TestFrameMultipleSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 10; i++ {
		env, _ := NewEnvelope(KindControl, i, "mgr", "svc", t0, Control{Command: CtlPing, Target: "svc"})
		if err := writeEnvelope(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 10; i++ {
		env, err := readEnvelope(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != i {
			t.Fatalf("frame %d read out of order as %d", i, env.ID)
		}
	}
	if _, err := readEnvelope(&buf); err != io.EOF {
		t.Fatalf("trailing read err = %v, want io.EOF", err)
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	_, err := readEnvelope(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	env, _ := NewEnvelope(KindPingOrError(), 1, "a", "b", t0, ErrorBody{Origin: "x", Msg: "y"})
	if err := writeEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := readEnvelope(bytes.NewReader(trunc)); err == nil {
		t.Fatal("read accepted truncated body")
	}
}

// KindPingOrError exists to exercise KindError in tests.
func KindPingOrError() Kind { return KindError }

// TestReadFrameGarbageJSON frames a structurally valid envelope around a
// body that is neither JSON nor a binary layout: the frame decodes, the
// body does not.
func TestReadFrameGarbageJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, Envelope{Kind: KindHeartbeat, Body: []byte("{not json")}); err != nil {
		t.Fatal(err)
	}
	env, err := readEnvelope(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var hb Heartbeat
	if err := env.Decode(KindHeartbeat, &hb); err == nil {
		t.Fatal("Decode accepted garbage JSON")
	}
}

func TestFramePropertyRoundTrip(t *testing.T) {
	f := func(id uint64, from, to, prompt string) bool {
		env, err := NewEnvelope(KindRequest, id, from, to, t0, InferenceRequest{Prompt: prompt})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := writeEnvelope(&buf, env); err != nil {
			// Header strings have one-byte lengths.
			return len(from) > frameHeaderMax || len(to) > frameHeaderMax
		}
		got, err := readEnvelope(&buf)
		if err != nil {
			return false
		}
		var body InferenceRequest
		if err := got.Decode(KindRequest, &body); err != nil {
			return false
		}
		return got.ID == id && got.From == from && got.To == to && body.Prompt == prompt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
