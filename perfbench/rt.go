package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/msgq"
	"repro/internal/platform"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/simtime"
	"repro/internal/spec"
)

// The rt workloads are the paper's Exp 2 local NOOP at program level: two
// closed-loop callers, each with its own Session.DialBalanced client to
// one of two noop services on a Delta pilot, on a scaled clock with
// FastBoot. Only the transport differs between rt-inproc and rt-tcp.
const (
	rtScale   = 100000 // session-clock seconds per wall second
	rtCallers = 2
	// rtRounds splits the timed phase across this many set-ups; each
	// reported figure is the interquartile mean over rounds, so one slow
	// rig or a burst of host noise moves it little.
	rtRounds = 30
	rtWarmup = 50 * time.Millisecond
	// setupsPerRound is how many extra set-ups each round times.
	setupsPerRound = 3
	// promptPool is the number of distinct seeded prompts, an equal number
	// of each size, so every seed offers the same byte mix; each caller
	// walks its own seeded permutations of the pool.
	promptPool = 22 * len(promptSizes)
	walkLen    = 64 * promptPool
	// latencyKeep is the per-caller, per-round reservoir of latency
	// samples: fixed memory however fast the program runs.
	latencyKeep = 1 << 15
)

// promptSizes is the prompt mix: a control-sized message, a typical
// request and a prompt-heavy one, in equal shares.
var promptSizes = [...]int{64, 1 << 10, 8 << 10}

type rtInputs struct {
	prompts []string
	walks   [rtCallers][]uint16
}

func makeRTInputs(seed uint64) rtInputs {
	src := rng.New(seed).Derive("perfbench.rt")
	in := rtInputs{prompts: make([]string, promptPool)}
	for i := range in.prompts {
		b := make([]byte, promptSizes[i%len(promptSizes)])
		for j := range b {
			b[j] = 'a' + byte(src.Intn(26))
		}
		in.prompts[i] = string(b)
	}
	for c := range in.walks {
		in.walks[c] = make([]uint16, 0, walkLen)
		for len(in.walks[c]) < walkLen {
			for _, j := range src.Perm(promptPool) {
				in.walks[c] = append(in.walks[c], uint16(j))
			}
		}
	}
	return in
}

// rtRig is one set-up: a session, its two noop services and one balanced
// client per caller.
type rtRig struct {
	sess    *core.Session
	svcs    []*core.Service
	clients []*service.Balancer
	// prefixes are the request-UID prefixes "<client addr>.req." the
	// services echo back.
	prefixes []string
}

func setupRT(ctx context.Context, seed uint64, transport string) (*rtRig, error) {
	sess, err := core.NewSession(core.SessionConfig{
		Seed: seed, Clock: simtime.NewScaled(rtScale, core.DefaultOrigin), FastBoot: true, Transport: transport,
	})
	if err != nil {
		return nil, err
	}
	r := &rtRig{sess: sess}
	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "delta", Cores: 256, GPUs: 16})
	if err != nil {
		r.close()
		return nil, err
	}
	sm := sess.ServiceManager()
	sm.AddPilot(p)
	uids := make([]string, rtCallers)
	for i := range uids {
		h, err := sm.Submit(spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("noop-%d", i), Cores: 1},
			Model:           "noop",
			ProbeInterval:   time.Hour,
			// The scaled clock would shrink the default 10-minute start
			// timeout to 6 ms of wall time, which one GC pause or host
			// hiccup exceeds; set-up is measured, not raced.
			StartTimeout: 10000 * time.Hour,
		})
		if err != nil {
			r.close()
			return nil, err
		}
		r.svcs = append(r.svcs, h)
		uids[i] = h.UID()
	}
	if err := sm.WaitReady(ctx, uids...); err != nil {
		r.close()
		return nil, err
	}
	for i, uid := range uids {
		addr := platform.Addr("delta", "", fmt.Sprintf("perfbench.caller.%d", i))
		b, err := sess.DialBalanced(addr, uid)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, b)
		r.prefixes = append(r.prefixes, addr+".req.")
	}
	return r, nil
}

func (r *rtRig) close() {
	for _, c := range r.clients {
		_ = c.Close() // teardown of a finished rig; nothing is pending
	}
	r.sess.Close()
}

// reservoir keeps a uniform sample of a stream in fixed memory.
type reservoir struct {
	s []float64
	n uint64
	x uint64
}

func newReservoir(seed uint64) *reservoir {
	return &reservoir{s: make([]float64, 0, latencyKeep), x: seed | 1}
}

func (r *reservoir) reset() { r.s, r.n = r.s[:0], 0 }

func (r *reservoir) add(v float64) {
	r.n++
	if len(r.s) < cap(r.s) {
		r.s = append(r.s, v)
		return
	}
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	if j := r.x % r.n; j < uint64(len(r.s)) {
		r.s[j] = v
	}
}

// caller is one closed-loop client's state across the run.
type caller struct {
	idx    int
	walk   []uint16
	pos    int
	seq    uint64     // requests sent on the current rig's client
	sent   int64      // requests sent over the whole run
	lat    *reservoir // wall µs per request
	errors int64
	faults []string

	// Traced-window observations.
	bdSum      [3]float64 // communication, service, inference (session ns)
	bdN        int64
	qSum, fSum float64
	qN         int64
	rejected   int64
	lastTotal  time.Duration
	lastTiming proto.Timing
}

var rtComponents = [3]string{"communication", "service", "inference"}

// check verifies that a reply answers the request just sent: right
// service, right model, and the request UID "<addr>.req.<seq>".
func (c *caller) check(rig *rtRig, reply proto.InferenceReply) {
	c.seq++
	prefix := rig.prefixes[c.idx]
	want := rig.svcs[c.idx].UID()
	ok := reply.ServiceUID == want && reply.Model == "noop" && strings.HasPrefix(reply.RequestUID, prefix)
	if ok {
		n, err := strconv.ParseUint(reply.RequestUID[len(prefix):], 10, 64)
		ok = err == nil && n == c.seq
	}
	if !ok && len(c.faults) < 5 {
		c.faults = append(c.faults, fmt.Sprintf("caller %d request %d: reply %q from %q (%s) does not answer it",
			c.idx, c.seq, reply.RequestUID, reply.ServiceUID, reply.Model))
	}
}

// window is what one timed phase measured.
type window struct {
	elapsed time.Duration
	ops     int64
}

// drive runs every caller closed-loop for d. With record, latencies are
// kept; with a tracer, each Infer is a span.
func (r *rtRig) drive(ctx context.Context, in rtInputs, callers []*caller, d time.Duration, record bool, tr *tracer) window {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := make([]int64, len(callers))
	for i, c := range callers {
		start[i] = c.sent
	}
	t0 := time.Now()
	for i, c := range callers {
		wg.Add(1)
		go func(c *caller, cl *service.Balancer, svc *core.Service) {
			defer wg.Done()
			root := tr.begin("bench.caller", -1)
			defer tr.end(root, 1)
			for n := 0; !stop.Load(); n++ {
				prompt := in.prompts[c.walk[c.pos]]
				c.pos = (c.pos + 1) % len(c.walk)
				c.sent++
				id := tr.begin("service.infer", root)
				s := time.Now()
				reply, bd, err := cl.Infer(ctx, prompt, 0)
				lat := time.Since(s)
				tr.end(id, 1)
				if err != nil {
					c.errors++
					c.seq++
					if strings.Contains(err.Error(), serving.ErrQueueFull.Error()) {
						c.rejected++
					}
					if len(c.faults) < 5 {
						c.faults = append(c.faults, fmt.Sprintf("caller %d: %v", c.idx, err))
					}
					continue
				}
				c.check(r, reply)
				if record {
					c.lat.add(float64(lat) / 1e3)
				}
				if tr != nil {
					for k, name := range rtComponents {
						c.bdSum[k] += float64(bd.Components[name])
					}
					c.bdN++
					c.lastTotal, c.lastTiming = bd.Total(), reply.Timing
					if n%16 == 0 {
						c.qSum += float64(svc.Queued())
						c.fSum += float64(svc.InFlight())
						c.qN++
					}
				}
			}
		}(c, r.clients[i], r.svcs[i])
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	w := window{elapsed: time.Since(t0)}
	for i, c := range callers {
		w.ops += c.sent - start[i]
	}
	return w
}

func runRT(ctx context.Context, cfg config, transport string) (*outcome, error) {
	out := &outcome{}
	in := makeRTInputs(cfg.seed)
	callers := make([]*caller, rtCallers)
	for i := range callers {
		callers[i] = &caller{idx: i, walk: in.walks[i], lat: newReservoir(cfg.seed + uint64(i))}
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setupOnce := func() (time.Duration, error) {
		t0 := time.Now()
		rig, err := setupRT(ctx, cfg.seed, transport)
		d := time.Since(t0)
		if err == nil {
			rig.close()
		}
		return d, err
	}
	var setups, rates, p50s, p99s []float64
	var sampled int
	var untraced, traced window
	var ms0, ms1 runtime.MemStats
	var allocs, bytes, gcs uint64
	per := cfg.budget() / rtRounds
	for round := 0; round < rtRounds; round++ {
		s, err := timeSetups("rt", setupsPerRound, setupOnce)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		setPhase(fmt.Sprintf("rt round %d set-up", round))
		rig, err := setupRT(ctx, cfg.seed, transport)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// A rig's request sequence restarts with its clients.
		for _, c := range callers {
			c.seq = 0
		}
		setPhase(fmt.Sprintf("rt warm-up %d", round))
		rig.drive(ctx, in, callers, rtWarmup, false, nil)

		setPhase(fmt.Sprintf("rt timed %d", round))
		timed := per
		if cfg.trace {
			timed = per / 2
		}
		for _, c := range callers {
			c.lat.reset()
		}
		runtime.ReadMemStats(&ms0)
		w := rig.drive(ctx, in, callers, timed, true, nil)
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		rates = append(rates, float64(w.ops)/w.elapsed.Seconds())
		var lat []float64
		for _, c := range callers {
			lat = append(lat, c.lat.s...)
		}
		sampled += len(lat)
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		untraced.elapsed += w.elapsed
		untraced.ops += w.ops

		if cfg.trace {
			setPhase(fmt.Sprintf("rt traced %d", round))
			w := rig.drive(ctx, in, callers, timed, false, tr)
			traced.elapsed += w.elapsed
			traced.ops += w.ops
			if round == rtRounds-1 {
				setPhase("rt layer probes")
				if err := rtProbes(ctx, cfg.seed, rig, in, callers[0], tr, out); err != nil {
					rig.close()
					return nil, err
				}
			}
		}
		setPhase(fmt.Sprintf("rt teardown %d", round))
		rig.close()
	}

	for _, c := range callers {
		out.attempted += c.sent
		out.failed += c.errors
		for _, f := range c.faults {
			out.problem("%s", f)
		}
	}
	rps, p50, p99 := interquartileMean(rates), interquartileMean(p50s), interquartileMean(p99s)
	out.set("setup_s", median(setups))
	out.set("throughput", rps)
	out.set("latency_p50_us", p50)
	out.set("latency_p99_us", p99)
	out.note("%s: rps=%.0f rt_p50_us=%.2f rt_p99_us=%.2f (interquartile means over %d rounds; %d sampled of %d timed requests) setup_s=%.4f (median of %d)",
		cfg.workload, rps, p50, p99, len(rates), sampled, untraced.ops, median(setups), len(setups))

	if cfg.trace {
		ops := float64(untraced.ops)
		out.set("go.allocs_per_op", float64(allocs)/ops)
		out.set("go.bytes_per_op", float64(bytes)/ops)
		out.set("go.gc_cycles", float64(gcs))
		perOpUntraced := untraced.elapsed.Seconds() * rtCallers / float64(untraced.ops) * 1e6
		perOpTraced := traced.elapsed.Seconds() * rtCallers / float64(traced.ops) * 1e6
		out.set("trace.overhead_us", perOpTraced-perOpUntraced)
		out.note("tracing overhead: %.3f us/request traced vs %.3f untraced (mean wall time per request)", perOpTraced, perOpUntraced)
		var bd [3]float64
		var n, q, f, qn, rej float64
		for _, c := range callers {
			for k := range bd {
				bd[k] += c.bdSum[k]
			}
			n += float64(c.bdN)
			q += c.qSum
			f += c.fSum
			qn += float64(c.qN)
			rej += float64(c.rejected)
		}
		// Session-clock nanoseconds to wall microseconds.
		toWallUs := func(v float64) float64 { return v / n / rtScale / 1e3 }
		out.set("rt.communication_us", toWallUs(bd[0]))
		out.set("rt.service_us", toWallUs(bd[1]))
		out.set("rt.inference_us", toWallUs(bd[2]))
		out.set("serving.queued", q/qn)
		out.set("serving.inflight", f/qn)
		out.set("serving.rejected", rej)
		spans := finishTrace(cfg, tr, out)
		for _, m := range []struct{ metric, span string }{
			{"service.resolve_ns", "service.resolve"},
			{"service.pick_ns", "service.pick"},
			{"service.decompose_ns", "service.decompose"},
			{"proto.envelope_ns", "proto.envelope"},
			{"proto.frame_encode_ns", "proto.frame_encode"},
			{"proto.frame_decode_ns", "proto.frame_decode"},
		} {
			v := perOp(spans, m.span)
			out.set(m.metric, v)
		}
		rtt := perOp(spans, "msgq.request")
		out.set("msgq.rtt_us", rtt/1e3)
		sub := perOp(spans, "serving.submit")
		out.set("serving.submit_us", sub/1e3)
	}
	return out, nil
}

// The standalone layer probes do fixed work, so a probe's cost does not
// depend on how fast the rest of the run went.
const (
	probeBatches = 200
	probeBatch   = 64
	probeCalls   = 2000
)

// rtProbes calls each layer's public function on the workload's inputs,
// one span per batch (ns-scale calls) or per call (µs-scale calls).
func rtProbes(ctx context.Context, seed uint64, rig *rtRig, in rtInputs, c0 *caller, tr *tracer, out *outcome) error {
	root := tr.begin("bench.probes", -1)
	defer tr.end(root, 1)
	reg := rig.sess.EndpointRegistry()
	uids := []string{rig.svcs[0].UID(), rig.svcs[1].UID()}

	for b := 0; b < probeBatches; b++ {
		id := tr.begin("service.resolve", root)
		for k := 0; k < probeBatch; k++ {
			if _, _, ok := reg.Resolve(uids[k&1]); !ok {
				out.problem("service.resolve: %s not resolvable", uids[k&1])
			}
		}
		tr.end(id, probeBatch)
	}
	for b := 0; b < probeBatches; b++ {
		id := tr.begin("service.pick", root)
		for k := 0; k < probeBatch; k++ {
			if got := rig.clients[0].Pick(); got != uids[0] {
				out.problem("service.pick: picked %s, want %s", got, uids[0])
			}
		}
		tr.end(id, probeBatch)
	}
	for b := 0; b < probeBatches; b++ {
		id := tr.begin("service.decompose", root)
		for k := 0; k < probeBatch; k++ {
			if bd := service.DecomposeRT(c0.lastTotal, c0.lastTiming); len(bd.Components) != len(rtComponents) {
				out.problem("service.decompose: %d components, want %d", len(bd.Components), len(rtComponents))
			}
		}
		tr.end(id, probeBatch)
	}

	// Request envelopes over the prompt pool, never encoded: copies of
	// them pay the body encode exactly like a fresh request does.
	envs := make([]proto.Envelope, len(in.prompts))
	for i, p := range in.prompts {
		env, err := proto.NewEnvelope(proto.KindRequest, uint64(i+1), "perfbench.client", "perfbench.service", time.Time{},
			proto.InferenceRequest{RequestUID: fmt.Sprintf("perfbench.req.%d", i), ClientUID: "perfbench.client", Model: "noop", Prompt: p})
		if err != nil {
			return err
		}
		envs[i] = env
	}
	for b := 0; b < probeBatches; b++ {
		id := tr.begin("proto.envelope", root)
		for k := 0; k < probeBatch; k++ {
			p := in.prompts[(b*probeBatch+k)%len(in.prompts)]
			env, err := proto.NewEnvelope(proto.KindRequest, uint64(k), "perfbench.client", "perfbench.service", time.Time{},
				proto.InferenceRequest{RequestUID: "perfbench.req", Model: "noop", Prompt: p})
			var req proto.InferenceRequest
			if err == nil {
				err = env.Decode(proto.KindRequest, &req)
			}
			if err != nil || len(req.Prompt) != len(p) {
				out.problem("proto.envelope: round trip failed (%v)", err)
			}
		}
		tr.end(id, probeBatch)
	}
	scratch := make([]proto.Envelope, probeBatch)
	frames := make([][]byte, probeBatch)
	var frameBytes, frameN float64
	for b := 0; b < probeBatches; b++ {
		for k := range scratch {
			scratch[k] = envs[(b*probeBatch+k)%len(envs)]
			frames[k] = frames[k][:0]
		}
		id := tr.begin("proto.frame_encode", root)
		for k := range scratch {
			f, err := proto.AppendFrame(frames[k], &scratch[k])
			if err != nil {
				out.problem("proto.frame_encode: %v", err)
			}
			frames[k] = f
		}
		tr.end(id, probeBatch)
		id = tr.begin("proto.frame_decode", root)
		for k, f := range frames {
			env, err := proto.DecodeFrame(f[4:])
			if err != nil || env.ID != scratch[k].ID || len(env.Body) != len(scratch[k].Body) {
				out.problem("proto.frame_decode: frame %d does not round-trip (%v)", k, err)
			}
		}
		tr.end(id, probeBatch)
		for _, f := range frames {
			frameBytes += float64(len(f))
			frameN++
		}
	}
	out.set("proto.frame_bytes", frameBytes/frameN)

	// A bare TCP echo at the same body mix.
	srv, err := msgq.ListenTCP("127.0.0.1:0", func(env proto.Envelope) proto.Envelope {
		return proto.Envelope{Kind: proto.KindReply, ID: env.ID, From: env.To, To: env.From, Body: env.Body}
	})
	if err != nil {
		return err
	}
	cl, err := msgq.DialTCP(srv.Addr())
	if err != nil {
		srv.Close()
		return err
	}
	for k := 0; k < probeCalls; k++ {
		env := envs[k%len(envs)]
		want := env.EncodedBodyLen()
		id := tr.begin("msgq.request", root)
		reply, err := cl.Request(ctx, env)
		tr.end(id, 1)
		if err != nil || reply.Kind != proto.KindReply || len(reply.Body) != want {
			out.problem("msgq.request: echo %d failed (%v)", k, err)
		}
	}
	out.set("msgq.late_replies", float64(cl.LateReplies()))
	_ = cl.Close() // every request above has returned
	_ = srv.Close()
	out.set("msgq.dropped_replies", float64(srv.DroppedReplies()))

	// serving.Server.Submit directly, on a noop backend.
	mspec, err := llm.Lookup("noop")
	if err != nil {
		return err
	}
	clock := simtime.NewScaled(rtScale, core.DefaultOrigin)
	src := rng.New(seed).Derive("perfbench.serving")
	ss, err := serving.New(serving.Config{
		UID: "perfbench.serving", Backend: serving.LLMBackend{M: llm.NewInstance(mspec, clock, src)}, Clock: clock, Src: src,
	})
	if err != nil {
		return err
	}
	if _, err := ss.Start(); err != nil {
		return err
	}
	defer ss.Stop()
	reqUIDs := make([]string, probeCalls)
	for k := range reqUIDs {
		reqUIDs[k] = fmt.Sprintf("perfbench.submit.%06d", k)
	}
	for k := 0; k < probeCalls; k++ {
		req := proto.InferenceRequest{RequestUID: reqUIDs[k], ClientUID: "perfbench.client", Model: "noop", Prompt: in.prompts[k%len(in.prompts)]}
		id := tr.begin("serving.submit", root)
		reply, err := ss.Submit(ctx, req)
		tr.end(id, 1)
		if err != nil || reply.RequestUID != req.RequestUID {
			out.problem("serving.submit: request %s answered %q (%v)", req.RequestUID, reply.RequestUID, err)
		}
	}
	return nil
}
