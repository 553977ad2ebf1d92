// Package core is the client-facing runtime facade — the analogue of
// RADICAL-Pilot's client layer extended with the paper's service
// capabilities. A Session owns the clock, RNG, platform topology,
// communication network and metrics; a PilotManager acquires pilots; a
// TaskManager and a ServiceManager submit TaskDescriptions and
// ServiceDescriptions through one unified API (Fig. 2 (1)); an Updater
// publishes every entity state transition on a dedicated channel
// (Fig. 2 (6)). Remote (e.g. R3-hosted) services register their endpoints
// directly with the session, so client tasks consume local and remote
// model instances through the same interface.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/journal"
	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/proto"
	"repro/internal/restapi"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// DefaultOrigin is the simulated epoch used when no clock is supplied.
var DefaultOrigin = time.Date(2025, 3, 17, 0, 0, 0, 0, time.UTC)

// UpdatesAddr is the session-level PUB endpoint for state updates.
const UpdatesAddr = "session//updates"

// SessionConfig parameterizes a Session.
type SessionConfig struct {
	// Seed drives all stochastic behaviour; the same seed replays the
	// same run.
	Seed uint64
	// Clock defaults to a 1000x scaled clock at DefaultOrigin.
	Clock simtime.Clock
	// Topology defaults to the full catalog topology: the paper's three
	// platforms (frontier, delta, r3) plus the mixed-shape hetero campus.
	Topology *platform.Topology
	// FastBoot zeroes pilot boot, launch and publish overheads. Use for
	// runs that measure steady-state behaviour (the paper's Exp 2/3, where
	// bootstrap is out of scope) on low clock scales where those sleeps
	// would cost real wall time.
	FastBoot bool
	// SchedPolicy names the placement policy every pilot's agent
	// scheduler uses ("strict", "backfill", "best-fit"). Empty defers to
	// the platform's default, then to strict.
	SchedPolicy string
	// Router names the session-level task→pilot routing strategy of the
	// TaskManager ("round-robin", "least-loaded", "capacity-fit"). Empty
	// selects round-robin, the seed dispatch.
	Router string
	// JournalPath, when set, makes the session durable: every entity
	// description, state transition, placement binding and endpoint
	// registry mutation is appended to a write-ahead journal at this path,
	// and core.Recover can reconstruct the session from it after a client
	// crash. Journaled sessions launch attachable pilots under
	// session-scoped UIDs so recovery can find the survivors.
	JournalPath string
	// JournalFlushEvery overrides the journal's fsync batching interval on
	// the session clock (default journal.DefaultFlushEvery).
	JournalFlushEvery time.Duration
	// Transport selects the msgq transport for service endpoints
	// (msgq.TransportInproc, the default, or msgq.TransportTCP for real
	// loopback sockets with dialable published addresses — the transport
	// multi-process sessions run on).
	Transport string
	// LoadHorizon bounds how old a registry load report may be before
	// balancing clients treat it as no information and fall back to blind
	// rotation (default service.DefaultLoadHorizon). It must comfortably
	// cover the report cadence — the autoscaler's ScaleInterval or a
	// campaign reporter's interval — or every pick degrades to rotation.
	LoadHorizon time.Duration
}

// Session is one runtime instance.
type Session struct {
	uid   string
	clock simtime.Clock
	src   *rng.Source
	topo  *platform.Topology
	net   *msgq.Network
	coll  *metrics.Collector
	prof  *profile.Recorder

	updates msgq.Publisher

	// jw is the write-ahead journal (nil for volatile sessions);
	// incarnation counts recoveries: 0 volatile, 1 first journaled life,
	// +1 per Recover. Both are fixed before the session is reachable.
	jw          *journal.Writer
	incarnation uint64
	routerName  string
	transport   string
	loadHorizon time.Duration

	mu       sync.Mutex
	closed   bool
	remotes  map[string]proto.Endpoint
	fastBoot bool
	schedPol string

	pm *PilotManager
	tm *TaskManager
	sm *ServiceManager
}

// NewSession assembles a runtime session.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Clock == nil {
		cfg.Clock = simtime.NewScaled(1000, DefaultOrigin)
	}
	if cfg.Topology == nil {
		cfg.Topology = platform.DefaultTopology()
	}
	// Fail fast on a bad policy or router name instead of at the first
	// pilot launch / task submission.
	if _, err := scheduler.PolicyByName(cfg.SchedPolicy); err != nil {
		return nil, err
	}
	rt, err := router.ByName(cfg.Router)
	if err != nil {
		return nil, err
	}
	// Routers keep per-selection state (the round-robin cursor) and are
	// not safe to share: the task and service managers each get their own
	// instance, which also preserves the seed's independent dispatch
	// sequences.
	srt, err := router.ByName(cfg.Router)
	if err != nil {
		return nil, err
	}
	src := rng.New(cfg.Seed)
	net := msgq.NewNetwork(cfg.Clock, src.Derive("net"), cfg.Topology.Resolver())
	if err := net.SetTransport(cfg.Transport); err != nil {
		return nil, err
	}
	s := &Session{
		uid:      fmt.Sprintf("session.%08x", src.Derive("uid").Uint64()&0xffffffff),
		clock:    cfg.Clock,
		src:      src,
		topo:     cfg.Topology,
		net:      net,
		coll:     metrics.NewCollector(),
		prof:     profile.NewRecorder(),
		remotes:  make(map[string]proto.Endpoint),
		fastBoot: cfg.FastBoot,
		schedPol: cfg.SchedPolicy,

		routerName:  cfg.Router,
		transport:   cfg.Transport,
		loadHorizon: cfg.LoadHorizon,
	}
	pub, err := net.BindPub(UpdatesAddr)
	if err != nil {
		net.Close()
		return nil, err
	}
	s.updates = pub
	s.pm = &PilotManager{sess: s, pilots: make(map[string]*pilot.Pilot)}
	s.tm = &TaskManager{
		sess:     s,
		rt:       rt,
		tasks:    make(map[string]*Task),
		overflow: make(map[string]*Task),
	}
	s.sm = &ServiceManager{
		sess:     s,
		rt:       srt,
		reg:      service.NewEndpointRegistry(),
		services: make(map[string]*Service),
	}
	if cfg.JournalPath != "" {
		jw, err := journal.Open(journal.Config{
			Path: cfg.JournalPath, Clock: cfg.Clock, FlushEvery: cfg.JournalFlushEvery,
		})
		if err != nil {
			_ = s.updates.Close()
			net.Close()
			return nil, err
		}
		s.jw = jw
		s.incarnation = 1
		if err := s.attachJournal(cfg.Seed); err != nil {
			_ = jw.Close()
			_ = s.updates.Close()
			net.Close()
			return nil, err
		}
	}
	return s, nil
}

// attachJournal writes the opening session record and wires the endpoint
// registry's mutations into the journal. The registry fence moves to the
// current incarnation, so publications from earlier incarnations (zombies
// surviving a recovery) are rejected.
func (s *Session) attachJournal(seed uint64) error {
	if err := s.jw.Append(journal.KindSession, journal.SessionBody{
		UID: s.uid, Seed: seed, Incarnation: s.incarnation,
		SchedPolicy: s.schedPol, Router: s.routerName, FastBoot: s.fastBoot,
	}); err != nil {
		return err
	}
	s.sm.reg.SetFence(s.incarnation)
	s.sm.reg.SetObserver(func(op service.EndpointOp, uid string, ep proto.Endpoint, gen uint64) {
		s.journalAppend(journal.KindEndpoint, journal.EndpointBody{
			Op: string(op), UID: uid, Endpoint: ep, Generation: gen,
		})
	})
	return nil
}

// journalAppend appends one record to the session journal (no-op for
// volatile sessions or after the journal crashed).
func (s *Session) journalAppend(kind journal.Kind, body any) {
	if s.jw == nil {
		return
	}
	_ = s.jw.Append(kind, body)
}

// UID returns the session identifier.
func (s *Session) UID() string { return s.uid }

// Clock returns the session clock.
func (s *Session) Clock() simtime.Clock { return s.clock }

// RNG returns the session's root RNG source.
func (s *Session) RNG() *rng.Source { return s.src }

// Network returns the session's communication network.
func (s *Session) Network() *msgq.Network { return s.net }

// Topology returns the platform topology.
func (s *Session) Topology() *platform.Topology { return s.topo }

// Metrics returns the session-wide metrics collector.
func (s *Session) Metrics() *metrics.Collector { return s.coll }

// Profile returns the session profile recorder (the RADICAL-Analytics
// analogue): every entity state transition is recorded with its clock
// timestamp and can be exported as CSV.
func (s *Session) Profile() *profile.Recorder { return s.prof }

// Journal returns the session's write-ahead journal writer (nil for
// volatile sessions).
func (s *Session) Journal() *journal.Writer { return s.jw }

// Incarnation returns the session's journal incarnation: 0 for volatile
// sessions, 1 for a journaled session's first life, +1 per recovery.
// Endpoint publications are stamped with it and fenced by the registry.
func (s *Session) Incarnation() uint64 { return s.incarnation }

// PilotManager returns the session's pilot manager.
func (s *Session) PilotManager() *PilotManager { return s.pm }

// TaskManager returns the session's task manager.
func (s *Session) TaskManager() *TaskManager { return s.tm }

// ServiceManager returns the session's service manager.
func (s *Session) ServiceManager() *ServiceManager { return s.sm }

// SubscribeUpdates attaches to the Updater's state-update channel,
// optionally filtered by entity topics ("pilot", "task", "service").
func (s *Session) SubscribeUpdates(buffer int, topics ...string) (*msgq.Subscription, error) {
	return s.net.Subscribe("client", UpdatesAddr, buffer, topics...)
}

// publishState is the Updater: it broadcasts one state transition on the
// session's update channel, records it in the session profile, and — for
// journaled sessions — appends it to the write-ahead journal.
func (s *Session) publishState(entity string) states.Callback {
	record := s.prof.Callback(entity)
	return func(uid string, from, to states.State, at time.Time) {
		record(uid, from, to, at)
		s.journalAppend(journal.KindTransition, journal.TransitionBody{
			Entity: entity, UID: uid, From: string(from), To: string(to), At: at,
		})
		env, err := proto.NewEnvelope(proto.KindStateUpdate, 0, uid, "", at, proto.StateUpdate{
			EntityUID: uid, Entity: entity, State: string(to), At: at,
		})
		if err != nil {
			return
		}
		s.updates.Publish(entity, env)
	}
}

// RegisterRemote adds a remote (externally managed, e.g. R3-hosted)
// service endpoint to the session. Remote models "are usually persistent
// on dedicated resources and do not need to be bootstrapped" (§IV).
//
// The registration is also published into the session EndpointRegistry —
// the single source of endpoint truth — stamped with the session
// incarnation, so pooled and resolver clients discover remote endpoints
// through exactly the same generation-stamped lookup as local ones.
func (s *Session) RegisterRemote(ep proto.Endpoint) {
	s.mu.Lock()
	s.remotes[ep.ServiceUID] = ep
	s.mu.Unlock()
	ep.Incarnation = s.incarnation
	_, _ = s.sm.reg.Publish(ep)
}

// RemoteEndpoints returns registered remote endpoints (all models when
// model is empty).
func (s *Session) RemoteEndpoints(model string) []proto.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []proto.Endpoint
	for _, ep := range s.remotes {
		if model == "" || ep.Model == model {
			out = append(out, ep)
		}
	}
	sortEndpoints(out)
	return out
}

// Dial connects a client address to a service endpoint, dispatching on
// the endpoint protocol: msgq endpoints get an in-network client, REST
// endpoints (remote R3-style deployments) get an HTTP-backed caller. Both
// satisfy service.Caller, so client tasks are agnostic to locality.
func (s *Session) Dial(clientAddr string, ep proto.Endpoint) (service.Caller, error) {
	if ep.Protocol == "rest" {
		return restapi.NewCaller(ep, s.clock)
	}
	return service.Dial(s.net, s.clock, clientAddr, ep)
}

// Pool returns a load-balanced Caller over all live endpoints of model in
// the session EndpointRegistry — local pilot services arrive there via
// the publish mirror, remote registrations via RegisterRemote. Every
// pooled request goes through a per-UID generation-aware resolver, so
// pool clients survive failover re-publications exactly like DialService
// clients (the old evict-on-error connection cache is gone).
func (s *Session) Pool(clientAddr, model string, bal loadbal.Balancer) (*service.Pool, error) {
	return service.NewPool(s.sm.reg, model, bal, func(ep proto.Endpoint) (service.Caller, error) {
		return s.Dial(clientAddr, ep)
	})
}

// EndpointRegistry returns the session-level endpoint registry: the
// authority mapping stable service UIDs to live, generation-stamped
// endpoints across failover re-placements.
func (s *Session) EndpointRegistry() *service.EndpointRegistry { return s.sm.reg }

// DialService returns a registry-resolving Caller bound to a stable
// service UID: every request resolves the UID through the session
// EndpointRegistry, so the caller survives failure-driven re-placements —
// when the hosting pilot dies and the service re-publishes from a new
// pilot, the caller re-resolves and redials instead of erroring into the
// dead address (the fate of a client that cached the raw endpoint).
func (s *Session) DialService(clientAddr, uid string) (*service.Resolver, error) {
	return service.NewResolver(s.sm.reg, uid, func(ep proto.Endpoint) (service.Caller, error) {
		return s.Dial(clientAddr, ep)
	}, 0)
}

// DialBalanced returns a replica-aware inference client for uid: requests
// spread over the base instance and whatever replicas the registry's
// balancing group currently lists, picked by seeded power-of-two-choices
// over the live load reports (two probes per request, lock-free, with a
// round-robin fallback when reports age past the session's LoadHorizon).
// For an unscaled service it behaves exactly like DialService.
func (s *Session) DialBalanced(clientAddr, uid string) (*service.Balancer, error) {
	return s.DialBalancedWith(clientAddr, uid, nil)
}

// DialBalancedWith is DialBalanced with an explicit picker strategy (nil
// selects the default: power-of-two-choices seeded deterministically from
// the session seed and uid). The ablation harness uses it to hold the
// same request stream against p2c, blind round-robin and the full-scan
// least-loaded baseline.
func (s *Session) DialBalancedWith(clientAddr, uid string, picker loadbal.Picker) (*service.Balancer, error) {
	return service.NewBalancer(s.sm.reg, uid, func(ep proto.Endpoint) (service.Caller, error) {
		return s.Dial(clientAddr, ep)
	}, service.BalancerOptions{
		Picker:  picker,
		Seed:    s.src.Derive("balance." + uid).Uint64(),
		Now:     s.clock.Now,
		Horizon: s.loadHorizon,
	})
}

// Close shuts the session down: pilots, services, network. Tasks still
// parked in the TaskManager's overflow pool fail with ErrSessionClosed,
// and the pilot shutdowns fail queued tasks instead of re-routing them.
func (s *Session) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.sm.close()
	s.tm.close()
	s.pm.shutdownAll()
	s.net.Close()
	if s.jw != nil {
		_ = s.jw.Close()
	}
}

// Abandon simulates the client process dying mid-campaign: the session's
// managers stop (in-flight re-placements settle with ErrSessionClosed,
// overflow tasks fail), the update channel unbinds, and the journal
// crashes — no graceful final fsync, every later append dropped. Unlike
// Close, the pilots and the network stay up: they model remote machines
// that outlive the client, which is exactly what Recover reattaches to.
// Experiment fault injection wires this as the journal's OnCrash callback.
func (s *Session) Abandon() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.sm.close()
	s.tm.close()
	// Free the updates address so a recovered session can bind it on the
	// same (surviving) network.
	_ = s.updates.Close()
	if s.jw != nil {
		s.jw.Crash()
	}
}

func sortEndpoints(eps []proto.Endpoint) {
	for i := 1; i < len(eps); i++ {
		for j := i; j > 0 && eps[j].ServiceUID < eps[j-1].ServiceUID; j-- {
			eps[j], eps[j-1] = eps[j-1], eps[j]
		}
	}
}

// --- PilotManager -----------------------------------------------------------

// PilotManager acquires and tracks pilots.
type PilotManager struct {
	sess *Session

	mu     sync.Mutex
	seq    int
	pilots map[string]*pilot.Pilot
}

// Submit launches a pilot on the described platform.
func (pm *PilotManager) Submit(desc spec.PilotDescription) (*pilot.Pilot, error) {
	plat := pm.sess.topo.Platform(desc.Platform)
	if plat == nil {
		return nil, fmt.Errorf("core: unknown platform %q", desc.Platform)
	}
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	pm.mu.Lock()
	pm.seq++
	seq := pm.seq
	pm.mu.Unlock()
	if desc.UID == "" {
		if pm.sess.jw != nil {
			// Session-scoped UIDs keep attachable pilots of concurrent
			// journaled sessions apart in the package-level live registry.
			desc.UID = fmt.Sprintf("%s.pilot.%s.%04d", pm.sess.uid, desc.Platform, seq)
		} else {
			desc.UID = fmt.Sprintf("pilot.%s.%04d", desc.Platform, seq)
		}
	}
	// WAL intent: the description lands in the journal before Launch, so
	// pilot state transitions (which begin during Launch) always replay
	// against a known UID.
	pm.sess.journalAppend(journal.KindPilot, journal.PilotBody{UID: desc.UID, Desc: desc})
	cfg := pilot.Config{
		Clock:                pm.sess.clock,
		Src:                  pm.sess.src.Derive(fmt.Sprintf("pilot.%s.%d", desc.Platform, seq)),
		Net:                  pm.sess.net,
		Platform:             plat,
		SchedPolicy:          pm.sess.schedPol,
		StateCallback:        pm.sess.publishState("task"),
		PilotStateCallback:   pm.sess.publishState("pilot"),
		ServiceStateCallback: pm.sess.publishState("service"),
		Attach:               pm.sess.jw != nil,
		Transport:            pm.sess.transport,
		// Mirror every service endpoint publication into the session
		// EndpointRegistry as part of the publish bootstrap phase, so a
		// ready service is already resolvable session-wide. The pilot UID
		// identifies the publishing incarnation: a straggling publication
		// from a pilot the service has already migrated away from is
		// dropped instead of overwriting the failover re-publication.
		OnServicePublish: func(ep proto.Endpoint) { pm.sess.sm.mirrorPublish(desc.UID, ep) },
	}
	if pm.sess.fastBoot {
		cfg.BootTime = rng.ConstDuration(0)
		cfg.PublishOverhead = rng.ConstDuration(0)
		cfg.LaunchModel = &platform.LaunchModel{}
	}
	p, err := pilot.Launch(cfg, desc)
	if err != nil {
		return nil, err
	}
	pm.mu.Lock()
	pm.pilots[p.UID()] = p
	pm.mu.Unlock()
	return p, nil
}

// Get returns a pilot by UID.
func (pm *PilotManager) Get(uid string) (*pilot.Pilot, bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	p, ok := pm.pilots[uid]
	return p, ok
}

// List returns all pilots.
func (pm *PilotManager) List() []*pilot.Pilot {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make([]*pilot.Pilot, 0, len(pm.pilots))
	for _, p := range pm.pilots {
		out = append(out, p)
	}
	return out
}

// shutdownAll shuts every pilot down. Shutdown on a pilot another caller
// is already tearing down waits for that teardown, so shutdownAll returns
// only once every pilot has finished.
func (pm *PilotManager) shutdownAll() {
	for _, p := range pm.List() {
		_ = p.Shutdown()
	}
}

// --- TaskManager -------------------------------------------------------------

// ErrSessionClosed is the failure overflow-pooled tasks receive when the
// session shuts down before new capacity arrives for them.
var ErrSessionClosed = errors.New("core: session closed")

// TaskManager submits compute tasks across the session's pilots. Which
// pilot a task binds to is the pluggable Router's decision (default:
// round-robin, the seed dispatch; see SessionConfig.Router), made one
// task at a time against the pilots' live capacity snapshots — the
// session-level half of the pilot abstraction's late binding.
//
// Submission is transactional per description: Submit returns the
// successfully submitted prefix together with the error that stopped the
// batch. Validation failures and routing rejections stop the batch
// before any routing state moves, so resubmitting the remainder
// continues the sequence exactly where it stopped. (A pilot dying in
// the instant between routing and dispatch re-enters routing instead of
// erroring; only that race consumes extra rotation steps.)
//
// Tasks whose pilot shuts down before granting them resources are
// re-routed to another active pilot; when none is attached they park in
// a session-level overflow pool that AddPilot drains, so late-bound work
// survives pilot churn. Tasks pinned to a pilot (TaskDescription.Pilot)
// and tasks already executing are not re-routed: the former fail with
// pilot.ErrPilotStopped, the latter keep their own lifecycle.
type TaskManager struct {
	sess *Session

	mu       sync.Mutex
	pilots   []*pilot.Pilot
	rt       router.Router
	seq      int
	tasks    map[string]*Task
	overflow map[string]*Task
	closed   bool
}

// Task is a session-level task handle. It follows one logical task
// across pilot re-routes: the underlying pilot task may be replaced when
// a pilot dies, but the UID, description and completion channel stay.
type Task struct {
	tm  *TaskManager
	uid string
	// desc and ctx are fixed at submission; re-dispatches reuse both.
	desc spec.TaskDescription
	ctx  context.Context

	mu       sync.Mutex
	cur      *pilot.Task
	p        *pilot.Pilot
	reroutes int
	finished bool
	err      error
	done     chan struct{}
}

// UID returns the stable logical task UID.
func (t *Task) UID() string { return t.uid }

// Description returns the submitted description.
func (t *Task) Description() spec.TaskDescription { return t.desc }

// State returns the task's current lifecycle state. A task parked in the
// session overflow pool (no pilot bound) reports TMGR_SCHEDULING.
func (t *Task) State() states.State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		return t.cur.State()
	}
	if t.finished {
		if t.err != nil {
			return states.TaskFailed
		}
		return states.TaskDone
	}
	return states.TaskTmgrScheduling
}

// Result returns the execution result (valid once Done() is closed).
func (t *Task) Result() executor.Result {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur != nil {
		return t.cur.Result()
	}
	return executor.Result{Err: t.err}
}

// Pilot returns the UID of the pilot currently running the task, or ""
// while it sits in the session overflow pool.
func (t *Task) Pilot() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.p == nil {
		return ""
	}
	return t.p.UID()
}

// Reroutes counts how many times the session re-bound this task to a new
// pilot after its previous one shut down.
func (t *Task) Reroutes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reroutes
}

// Done returns a channel closed when the logical task reaches a final
// state — including across re-routes, which the per-pilot task handles
// underneath cannot express.
func (t *Task) Done() <-chan struct{} { return t.done }

// Err returns the task's final error (nil on success; undefined before
// Done() closes).
func (t *Task) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// finish seals the logical task exactly once.
func (t *Task) finish(err error) {
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.err = err
	t.mu.Unlock()
	close(t.done)
}

// AddPilot attaches a pilot to the task manager and offers it to every
// task parked in the overflow pool.
func (tm *TaskManager) AddPilot(p *pilot.Pilot) {
	tm.mu.Lock()
	tm.pilots = append(tm.pilots, p)
	pending := make([]*Task, 0, len(tm.overflow))
	for _, t := range tm.overflow {
		pending = append(pending, t)
	}
	for _, t := range pending {
		delete(tm.overflow, t.uid)
	}
	rt := tm.rt
	tm.mu.Unlock()
	// Drain deterministically: submission order (UIDs embed the session
	// sequence number), re-ordered by the router's own ranking when it has
	// one — capacity-fit drains fits-now tasks first, so the new pilot
	// starts real work instead of queueing a blocked head in front of it.
	sortTasks(pending)
	if ranker, ok := rt.(router.Ranker); ok && len(pending) > 1 {
		descs := make([]spec.TaskDescription, len(pending))
		for i, t := range pending {
			descs[i] = t.desc
		}
		// Accept the ranking only if it is a genuine permutation: an
		// out-of-range or duplicated index from a custom Ranker must not
		// panic the drain or dispatch a task twice while dropping another.
		ranked := make([]*Task, 0, len(pending))
		seen := make([]bool, len(pending))
		valid := true
		for _, i := range ranker.RankDrain(p, descs) {
			if i < 0 || i >= len(pending) || seen[i] {
				valid = false
				break
			}
			seen[i] = true
			ranked = append(ranked, pending[i])
		}
		if valid && len(ranked) == len(pending) {
			pending = ranked
		}
	}
	for _, t := range pending {
		// Ordered handoff: wait for each drained task to reach an agent
		// scheduler before dispatching the next, so the drain order is
		// also the scheduler arrival order — without it the per-task
		// dispatch goroutines race and the ranking (or the seed's
		// submission order) would only hold probabilistically.
		tm.redispatch(t, true)
	}
}

// RouterName returns the name of the active task→pilot router.
func (tm *TaskManager) RouterName() string {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.rt.Name()
}

// Submit routes and dispatches descriptions over the attached pilots,
// one at a time in order. On error it returns the successfully submitted
// prefix together with the error; descriptions after the failure are
// neither submitted nor accounted in any router state, so a retry of the
// remainder continues the task→pilot sequence unperturbed.
func (tm *TaskManager) Submit(ctx context.Context, descs ...spec.TaskDescription) ([]*Task, error) {
	tasks := make([]*Task, 0, len(descs))
	for _, d := range descs {
		t, err := tm.submitOne(ctx, d)
		if err != nil {
			return tasks, err
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// submitOne validates, routes and dispatches a single description.
// Validation runs before routing so a malformed description cannot
// advance the router's selection state, and a pilot that leaves ACTIVE
// between routing and dispatch triggers a re-route over the survivors
// rather than an error — only validation failures, routing rejections
// and capacity exhaustion surface to the caller.
func (tm *TaskManager) submitOne(ctx context.Context, d spec.TaskDescription) (*Task, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	for {
		tm.mu.Lock()
		if tm.closed {
			tm.mu.Unlock()
			return nil, ErrSessionClosed
		}
		if len(tm.pilots) == 0 {
			tm.mu.Unlock()
			return nil, errors.New("core: task manager has no pilots")
		}
		if d.UID == "" {
			tm.seq++
			d.UID = fmt.Sprintf("%s.task.%06d", tm.sess.uid, tm.seq)
		}
		if _, dup := tm.tasks[d.UID]; dup {
			tm.mu.Unlock()
			return nil, fmt.Errorf("core: duplicate task UID %s", d.UID)
		}
		p, err := tm.routeLocked(d)
		if err != nil {
			tm.mu.Unlock()
			return nil, err
		}
		t := &Task{tm: tm, uid: d.UID, desc: d, ctx: ctx, done: make(chan struct{})}
		tm.tasks[d.UID] = t
		tm.mu.Unlock()

		// Journal the description outside tm.mu (the writer's crash hook may
		// abandon the session, which takes tm.mu). A dispatch retry re-appends
		// it; replay skips the duplicate.
		tm.sess.journalAppend(journal.KindTask, journal.TaskBody{UID: d.UID, Desc: d})
		if _, err := tm.dispatch(t, p); err != nil {
			// The routed pilot stopped between routing and dispatch.
			// Seal and drop the handle (a concurrent Wait/Tasks snapshot
			// may already hold it), then retry: the liveness filter now
			// excludes the dead pilot. A stopped pilot never comes back,
			// so the retry count is finite.
			t.finish(err)
			tm.mu.Lock()
			delete(tm.tasks, d.UID)
			tm.mu.Unlock()
			if pinned := d.Pilot != ""; pinned {
				return nil, err
			}
			continue
		}
		return t, nil
	}
}

// routeLocked picks the destination pilot for d: the pinned pilot when
// the description names one, the Router's choice over the currently
// active pilots otherwise. Callers hold tm.mu.
func (tm *TaskManager) routeLocked(d spec.TaskDescription) (*pilot.Pilot, error) {
	return pickPilot(tm.pilots, tm.rt, "task", d)
}

// pickPilot is the routing decision both session managers share: the
// pinned pilot when d names one (it must be ACTIVE), the router's choice
// over the ACTIVE subset of pilots otherwise. kind labels errors ("task"
// or "service"). Callers hold the owning manager's lock, which also
// serializes the router's per-selection state.
func pickPilot(pilots []*pilot.Pilot, rt router.Router, kind string, d spec.TaskDescription) (*pilot.Pilot, error) {
	if d.Pilot != "" {
		for _, p := range pilots {
			if p.UID() == d.Pilot {
				if !p.Live() {
					return nil, fmt.Errorf("core: %s %s pinned to stopped pilot %s",
						kind, d.UID, d.Pilot)
				}
				return p, nil
			}
		}
		return nil, fmt.Errorf("core: %s %s pinned to unknown pilot %q", kind, d.UID, d.Pilot)
	}
	targets, live := activePilots(pilots)
	if len(live) == 0 {
		return nil, errors.New("core: no active pilots")
	}
	i, err := rt.Route(targets, d)
	if err != nil {
		return nil, err
	}
	return live[i], nil
}

// activePilots filters pilots to the live (not stopped) subset, as
// router targets and as pilots (same order) — the one liveness filter
// every routing path shares.
func activePilots(pilots []*pilot.Pilot) ([]router.Target, []*pilot.Pilot) {
	targets := make([]router.Target, 0, len(pilots))
	live := make([]*pilot.Pilot, 0, len(pilots))
	for _, p := range pilots {
		if !p.Live() {
			continue
		}
		targets = append(targets, p)
		live = append(live, p)
	}
	return targets, live
}

// dispatch submits the task to p and starts its watcher. The binding is
// journaled before the submission: a crash in between replays as a task
// bound to a pilot that never heard of it, which Recover detects (no
// pilot-level handle under the UID) and re-dispatches.
func (tm *TaskManager) dispatch(t *Task, p *pilot.Pilot) (*pilot.Task, error) {
	tm.sess.journalAppend(journal.KindBind, journal.BindBody{Entity: "task", UID: t.uid, Pilot: p.UID()})
	pt, err := p.SubmitTask(t.ctx, t.desc)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.cur, t.p = pt, p
	t.mu.Unlock()
	go tm.watch(t, pt, p)
	return pt, nil
}

// watch follows one pilot-level task to a final state and settles or
// re-routes the logical task: DONE finishes it, a queued-at-shutdown
// failure (pilot.ErrPilotStopped, unpinned) re-enters routing, anything
// else fails it.
func (tm *TaskManager) watch(t *Task, pt *pilot.Task, p *pilot.Pilot) {
	// The pilot drives every task to a final state (context cancellation
	// and pilot shutdown are both failure paths), so this wait needs no
	// deadline of its own.
	_ = p.WaitTasks(context.Background(), pt.UID())
	if pt.State() == states.TaskDone {
		t.finish(nil)
		return
	}
	err := pt.Result().Err
	if errors.Is(err, pilot.ErrPilotStopped) && t.desc.Pilot == "" {
		tm.requeue(t)
		return
	}
	if err == nil {
		err = fmt.Errorf("core: task %s failed", t.uid)
	}
	t.finish(err)
}

// requeue re-routes a task whose pilot stopped before granting it
// resources: to another active pilot when one can take it, into the
// overflow pool when none is attached, or to failure when no attached
// pilot's shapes could ever fit it (shape-aware routers reject it the
// same way they would at submit). A pilot that dies between routing and
// dispatch just re-enters routing — a stopped pilot never comes back, so
// the retry count is bounded by the number of attached pilots.
func (tm *TaskManager) requeue(t *Task) { tm.redispatch(t, false) }

// redispatch is requeue's body. With ordered set (the AddPilot drain), it
// additionally blocks until the dispatched task's request has reached the
// destination pilot's agent scheduler, so consecutive drain dispatches
// arrive in drain order.
func (tm *TaskManager) redispatch(t *Task, ordered bool) {
	t.mu.Lock()
	t.cur, t.p = nil, nil
	t.reroutes++
	t.mu.Unlock()

	for {
		tm.mu.Lock()
		if tm.closed {
			tm.mu.Unlock()
			t.finish(ErrSessionClosed)
			return
		}
		targets, live := activePilots(tm.pilots)
		if len(live) == 0 {
			tm.overflow[t.uid] = t
			tm.mu.Unlock()
			return
		}
		i, err := tm.rt.Route(targets, t.desc)
		tm.mu.Unlock()
		if err != nil {
			t.finish(err)
			return
		}
		p := live[i]
		pt, err := tm.dispatch(t, p)
		if err != nil {
			continue
		}
		if ordered {
			tm.awaitEnqueued(t, pt, p)
		}
		return
	}
}

// awaitEnqueued blocks until t's resource request has reached p's agent
// scheduler — the pilot task acks its enqueue (after staging, right when
// the scheduler accepts the request), so consecutive ordered dispatches
// arrive in drain order without polling wall-clock time. It also returns
// when t settles on a failure path that never reaches the scheduler or
// the pilot stops: both paths close their channel, so the select cannot
// stall the remaining drain.
func (tm *TaskManager) awaitEnqueued(t *Task, pt *pilot.Task, p *pilot.Pilot) {
	select {
	case <-pt.Enqueued():
	case <-t.done:
	case <-p.Stopped():
	}
}

// close fails every overflow-pooled task and stops further submissions.
func (tm *TaskManager) close() {
	tm.mu.Lock()
	tm.closed = true
	pending := make([]*Task, 0, len(tm.overflow))
	for uid, t := range tm.overflow {
		pending = append(pending, t)
		delete(tm.overflow, uid)
	}
	tm.mu.Unlock()
	for _, t := range pending {
		t.finish(ErrSessionClosed)
	}
}

// Wait blocks until the listed tasks reach a final state (following them
// across re-routes); with none listed it waits for every task submitted
// through this manager so far. It returns the first task failure, or the
// context error if ctx expires first.
func (tm *TaskManager) Wait(ctx context.Context, tasks ...*Task) error {
	if len(tasks) == 0 {
		tm.mu.Lock()
		tasks = make([]*Task, 0, len(tm.tasks))
		for _, t := range tm.tasks {
			tasks = append(tasks, t)
		}
		tm.mu.Unlock()
		sortTasks(tasks)
	}
	var firstErr error
	for _, t := range tasks {
		if t.tm != tm {
			return fmt.Errorf("core: task %s not owned by this manager", t.UID())
		}
		select {
		case <-t.done:
			if err := t.Err(); err != nil && firstErr == nil {
				firstErr = err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return firstErr
}

// Tasks returns every task submitted through this manager, in submission
// order.
func (tm *TaskManager) Tasks() []*Task {
	tm.mu.Lock()
	out := make([]*Task, 0, len(tm.tasks))
	for _, t := range tm.tasks {
		out = append(out, t)
	}
	tm.mu.Unlock()
	sortTasks(out)
	return out
}

// Overflow reports how many tasks are parked in the session overflow
// pool awaiting an active pilot.
func (tm *TaskManager) Overflow() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.overflow)
}

// sortTasks orders tasks by UID — submission order for manager-assigned
// UIDs, which embed the session sequence number.
func sortTasks(tasks []*Task) {
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].uid < tasks[j].uid })
}

// --- ServiceManager -----------------------------------------------------------

// ServiceManager submits service tasks across pilots and aggregates
// endpoint discovery over local pilots and remote registrations. Like the
// TaskManager, it binds work to pilots through the session's pluggable
// Router — a service is a task with raised priority, routed over the same
// pilot shape/snapshot probes — and it survives pilot churn: when the
// pilot hosting a service stops, the service is re-placed on a surviving
// pilot through the router, re-bootstrapped under its stable UID, and its
// endpoint atomically re-published in the session EndpointRegistry with a
// bumped generation, so registry-resolving clients follow it while the
// dead address is never handed out again. Services pinned to a pilot
// (ServiceDescription.Pilot) are never re-placed: the pilot's death
// surfaces as pilot.ErrPilotStopped, mirroring task semantics.
type ServiceManager struct {
	sess *Session
	reg  *service.EndpointRegistry

	mu       sync.Mutex
	pilots   []*pilot.Pilot
	rt       router.Router
	seq      int
	services map[string]*Service
	closed   bool
}

// Service is a session-level service handle: it follows one logical
// service across failure-driven re-placements. The pilot-level instance
// underneath may be replaced when a pilot dies, but the UID, description
// and completion channel stay.
type Service struct {
	sm   *ServiceManager
	uid  string
	desc spec.ServiceDescription

	mu           sync.Mutex
	inst         *service.Instance
	p            *pilot.Pilot
	swapped      chan struct{} // closed and re-made on every re-placement
	replacements int
	terminated   bool
	finished     bool
	err          error
	done         chan struct{}

	// Autoscaler state (see autoscale.go): replica instances spawned
	// under this logical UID, the replica UID sequence, the consecutive
	// below-threshold tick count (scale-down hysteresis), and the peak
	// serving-replica count observed. Mutated only by the handle's
	// autoscale loop; guarded by mu for the accessors.
	reps     []*replicaRef
	repSeq   int
	below    int
	peakReps int

	// Warm-standby state (see autoscale.go): pre-bootstrapped instances
	// held suspended in the registry, the standby UID sequence, and the
	// count of promotions (single-publish failovers). instUID is the
	// pilot-level UID of the current base instance — h.uid normally, the
	// promoted standby's <uid>.sN after a promotion, which Terminate and
	// the agent-facing paths must address the instance by.
	standbys   []*standbyRef
	sbSeq      int
	promotions int
	instUID    string
	// sbSpawning counts standby bootstraps claimed by a fillStandbys call
	// but not yet in standbys, so concurrent refills (the autoscale tick
	// and a promotion's background refill) cannot both fill one deficit.
	sbSpawning int
}

// UID returns the stable logical service UID — the key clients resolve
// through the session EndpointRegistry.
func (h *Service) UID() string { return h.uid }

// Description returns the submitted description (after defaulting).
func (h *Service) Description() spec.ServiceDescription { return h.desc }

// Instance returns the current pilot-level instance. It changes across
// re-placements and is nil for the instant between routing and dispatch;
// prefer the handle's own accessors, which tolerate that window.
func (h *Service) Instance() *service.Instance {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inst
}

// State returns the current lifecycle state of the live instance (NEW
// while dispatch is still in flight).
func (h *Service) State() states.State {
	if inst := h.Instance(); inst != nil {
		return inst.State()
	}
	return states.ServiceNew
}

// Endpoint returns the service's current endpoint: the session registry's
// live, generation-stamped record when published, the instance's own view
// otherwise (zero before publication).
func (h *Service) Endpoint() proto.Endpoint {
	if ep, _, ok := h.sm.reg.Resolve(h.uid); ok {
		return ep
	}
	if inst := h.Instance(); inst != nil {
		return inst.Endpoint()
	}
	return proto.Endpoint{}
}

// Bootstrap returns the live instance's measured BT components. After a
// re-placement these are the new instance's — the service paid a fresh
// bootstrap on its new pilot.
func (h *Service) Bootstrap() metrics.Breakdown {
	if inst := h.Instance(); inst != nil {
		return inst.Bootstrap()
	}
	return metrics.Breakdown{}
}

// QueueDepth returns the logical service's request queue depth — queued
// plus executing, summed across the base instance and any serving
// replicas.
func (h *Service) QueueDepth() int {
	return h.Queued() + h.InFlight()
}

// Queued returns requests admitted but not yet executing, summed across
// the base instance and any serving replicas — the backlog signal the
// autoscaler watches.
func (h *Service) Queued() int {
	n := 0
	if inst := h.Instance(); inst != nil {
		n = inst.Queued()
	}
	h.mu.Lock()
	for _, r := range h.reps {
		if r.member && !r.draining {
			n += r.inst.Queued()
		}
	}
	h.mu.Unlock()
	return n
}

// InFlight returns requests currently executing, summed across the base
// instance and any serving replicas.
func (h *Service) InFlight() int {
	n := 0
	if inst := h.Instance(); inst != nil {
		n = inst.InFlight()
	}
	h.mu.Lock()
	for _, r := range h.reps {
		if r.member && !r.draining {
			n += r.inst.InFlight()
		}
	}
	h.mu.Unlock()
	return n
}

// Replicas returns the current serving-replica count: the base instance
// plus every autoscaled replica admitted to the balancing group (1 for
// unscaled services).
func (h *Service) Replicas() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 1
	for _, r := range h.reps {
		if r.member && !r.draining {
			n++
		}
	}
	return n
}

// PeakReplicas returns the highest serving-replica count the autoscaler
// reached over the handle's lifetime (1 for unscaled services).
func (h *Service) PeakReplicas() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.peakReps < 1 {
		return 1
	}
	return h.peakReps
}

// Kill injects a service-process crash into the live instance (failure
// injection for tests; the liveness probe detects it).
func (h *Service) Kill() {
	if inst := h.Instance(); inst != nil {
		inst.Kill()
	}
}

// Pilot returns the UID of the pilot currently hosting the service.
func (h *Service) Pilot() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.p == nil {
		return ""
	}
	return h.p.UID()
}

// Replacements counts how many times the session re-placed this service
// on a new pilot after its previous one stopped — cold failovers that
// paid a fresh bootstrap. Warm-standby promotions are counted separately
// by Promotions.
func (h *Service) Replacements() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.replacements
}

// Promotions counts how many times a failover was absorbed by promoting
// a warm standby: a single registry publish, no re-bootstrap.
func (h *Service) Promotions() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.promotions
}

// Standbys returns the number of warm standbys currently held ready for
// promotion (bootstrapped, ACTIVE, suspended in the registry).
func (h *Service) Standbys() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, sb := range h.standbys {
		if sb.held && !sb.inst.Final() {
			n++
		}
	}
	return n
}

// Done returns a channel closed when the logical service reaches a final
// state — including across re-placements, which the per-pilot instances
// underneath cannot express.
func (h *Service) Done() <-chan struct{} { return h.done }

// Err returns the service's final error (nil on graceful termination;
// undefined before Done() closes).
func (h *Service) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// finish seals the logical service exactly once.
func (h *Service) finish(err error) {
	h.mu.Lock()
	if h.finished {
		h.mu.Unlock()
		return
	}
	h.finished = true
	h.err = err
	h.mu.Unlock()
	close(h.done)
}

// WaitReady blocks until the service is ACTIVE (following it across
// re-placements: during a failover it waits for the replacement instead
// of surfacing the transient failure), or returns the final error when
// the service fails for good.
func (h *Service) WaitReady(ctx context.Context) error {
	for {
		h.mu.Lock()
		inst := h.inst
		finished, err := h.finished, h.err
		swapped := h.swapped
		h.mu.Unlock()
		if finished {
			if err == nil {
				err = fmt.Errorf("core: service %s reached a final state before ACTIVE", h.uid)
			}
			return err
		}
		if inst == nil {
			// dispatch in flight (handle observed through Get between
			// routing and submission): no instance to wait on yet — the
			// window is host-scheduling bound, so poll on real time
			select {
			case <-h.done:
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			continue
		}
		if inst.State() == states.ServiceActive {
			return nil
		}
		ch := inst.Changed()
		// re-check after registering the waiter (lost-wakeup race), then
		// wait on whichever happens first: a state transition, a
		// re-placement swap, or the handle settling.
		if inst.State() == states.ServiceActive {
			return nil
		}
		select {
		case <-ch:
		case <-swapped:
		case <-h.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Registry returns the session EndpointRegistry services publish into.
func (sm *ServiceManager) Registry() *service.EndpointRegistry { return sm.reg }

// mirrorPublish is the pilot publish hook's session half: it mirrors an
// endpoint publication into the session registry unless the publishing
// pilot is no longer the service's current host — a bootstrap straggling
// past its pilot's death must not overwrite the failover re-publication
// with a dead address. Services without a session handle (submitted
// directly to a pilot's agent manager) mirror unconditionally.
//
// Like the pilot-side stopped guard this is check-then-act: a straggler
// publishing in the instant between passing this check and the watcher
// re-pointing h.p is mirrored anyway, but it is then superseded by the
// failover re-publication's higher generation (resolvers that woke into
// the dead address retry into the newer one). Across sessions the
// registry's incarnation fence is airtight: the publication is stamped
// with the current session incarnation, so after a crash recovery a
// zombie publisher from the previous incarnation is rejected outright.
func (sm *ServiceManager) mirrorPublish(pilotUID string, ep proto.Endpoint) {
	if h, ok := sm.Get(ep.ServiceUID); ok {
		h.mu.Lock()
		cur := h.p
		h.mu.Unlock()
		if cur != nil && cur.UID() != pilotUID {
			return
		}
	}
	ep.Incarnation = sm.sess.Incarnation()
	_, _ = sm.reg.Publish(ep)
}

// RouterName returns the name of the active service→pilot router.
func (sm *ServiceManager) RouterName() string {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return sm.rt.Name()
}

// AddPilot attaches a pilot to the service manager.
func (sm *ServiceManager) AddPilot(p *pilot.Pilot) {
	sm.mu.Lock()
	sm.pilots = append(sm.pilots, p)
	sm.mu.Unlock()
}

// Submit routes one service description to a pilot and starts its
// bootstrap. Routing mirrors the TaskManager: a description pinned to a
// pilot (ServiceDescription.Pilot) goes exactly there or fails, anything
// else is the Router's decision over the live pilot snapshots — made with
// the service's raised priority already applied, since that is what the
// agent scheduler will see.
func (sm *ServiceManager) Submit(d spec.ServiceDescription) (*Service, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	for {
		sm.mu.Lock()
		if sm.closed {
			sm.mu.Unlock()
			return nil, ErrSessionClosed
		}
		if len(sm.pilots) == 0 {
			sm.mu.Unlock()
			return nil, errors.New("core: service manager has no pilots")
		}
		if d.UID == "" {
			sm.seq++
			d.UID = fmt.Sprintf("%s.svc.%04d", sm.sess.uid, sm.seq)
		}
		if d.Priority == 0 {
			d.Priority = spec.ServicePriority
		}
		if d.MaxReplicas > 1 || d.WarmStandbys > 0 {
			applyScaleDefaults(&d)
		}
		if _, dup := sm.services[d.UID]; dup {
			sm.mu.Unlock()
			return nil, fmt.Errorf("core: duplicate service UID %s", d.UID)
		}
		p, err := sm.routeLocked(d)
		if err != nil {
			sm.mu.Unlock()
			return nil, err
		}
		// h.p is set before the handle becomes reachable (and before the
		// bootstrap can publish), so the publish mirror can check the
		// publishing incarnation; h.inst stays nil until dispatch returns
		// and every accessor tolerates that window.
		h := &Service{
			sm: sm, uid: d.UID, desc: d, p: p,
			swapped: make(chan struct{}), done: make(chan struct{}),
		}
		sm.services[d.UID] = h
		sm.mu.Unlock()

		// Journal description and binding outside sm.mu (the writer's crash
		// hook may abandon the session, which takes sm.mu), in that order and
		// before the dispatch: a crash in between replays as a service bound
		// to a pilot that never heard of it, which Recover re-places.
		sm.sess.journalAppend(journal.KindService, journal.ServiceBody{UID: d.UID, Desc: d})
		sm.sess.journalAppend(journal.KindBind, journal.BindBody{Entity: "service", UID: d.UID, Pilot: p.UID()})
		inst, err := p.Services().Submit(d)
		if err != nil {
			sm.mu.Lock()
			delete(sm.services, d.UID)
			sm.mu.Unlock()
			// The routed pilot stopped between routing and dispatch:
			// retry against the survivors, exactly like task submission.
			if !p.Live() && d.Pilot == "" {
				continue
			}
			return nil, err
		}
		h.mu.Lock()
		h.inst = inst
		h.mu.Unlock()
		go sm.watch(h)
		if d.WarmStandbys > 0 {
			sm.fillStandbys(h)
		}
		if d.MaxReplicas > 1 || d.WarmStandbys > 0 {
			// Standby-only services run the autoscaler too: its tick
			// reconciles dead standbys, refills the pool, and publishes the
			// load reports balancing clients steer by (the scaling decision
			// itself stays gated on MaxReplicas > 1).
			sm.startAutoscaler(h)
		}
		return h, nil
	}
}

// routeLocked picks the hosting pilot for d: the pinned pilot when the
// description names one, the Router's choice over the active pilots
// otherwise (routers see the embedded TaskDescription — a service is a
// task with raised priority). Callers hold sm.mu.
func (sm *ServiceManager) routeLocked(d spec.ServiceDescription) (*pilot.Pilot, error) {
	return pickPilot(sm.pilots, sm.rt, "service", d.TaskDescription)
}

// watch follows one logical service across instances (endpoint
// publication itself rides the pilot's OnServicePublish hook, ordered
// before ACTIVE): on the hosting pilot stopping it re-places the service
// (or fails a pinned one with pilot.ErrPilotStopped); instance failures
// with a healthy pilot — bad model, liveness kill — settle the handle.
//
// The settle-vs-replace decision keys on pilot liveness plus the
// session's terminate intent: a pilot shutdown tears ACTIVE services
// down gracefully (nil-error DONE), so a nil-error final state cannot
// mean "deliberately stopped" by itself. Terminate session-managed
// services through ServiceManager.Terminate — a direct agent-level
// Terminate that races a pilot shutdown is indistinguishable from the
// shutdown's own teardown and will be re-placed.
func (sm *ServiceManager) watch(h *Service) {
	for {
		h.mu.Lock()
		inst, p := h.inst, h.p
		h.mu.Unlock()

		pilotDead := false
		for !inst.Final() {
			ch := inst.Changed()
			// re-check after registering the waiter (lost-wakeup race)
			if inst.Final() {
				break
			}
			select {
			case <-ch:
			case <-p.Stopped():
				pilotDead = true
			}
			if pilotDead {
				break
			}
		}
		if !pilotDead {
			// The instance settled; a concurrent pilot shutdown may have
			// been the cause (its stop channel closes before the service
			// teardown starts, so this observation is ordered).
			select {
			case <-p.Stopped():
				pilotDead = true
			default:
			}
		}
		h.mu.Lock()
		terminated := h.terminated
		h.mu.Unlock()

		if terminated || !pilotDead {
			// The handle is settling for good (session Terminate, an
			// agent-level graceful termination via the control channel, or
			// an own failure on a healthy pilot): tombstone the registry
			// entry unconditionally — idempotent for the Terminate path —
			// so parked resolvers fail with ErrWithdrawn instead of
			// waiting forever for a re-publication.
			sm.reg.Withdraw(h.uid)
			h.finish(inst.Err())
			return
		}
		if h.desc.Pilot != "" {
			// Pinned services mirror pinned-task semantics: surface the
			// pilot's death instead of migrating.
			sm.reg.Withdraw(h.uid)
			h.finish(fmt.Errorf("core: service %s pinned to pilot %s: %w",
				h.uid, h.desc.Pilot, pilot.ErrPilotStopped))
			return
		}
		// A session closing down tears its pilots down too; a watcher that
		// observes its pilot's death in that window must settle instead of
		// racing Close for the survivors (the re-placed instance would be
		// orphaned on a pilot the session no longer manages).
		sm.mu.Lock()
		closed := sm.closed
		sm.mu.Unlock()
		if closed {
			sm.reg.Withdraw(h.uid)
			h.finish(ErrSessionClosed)
			return
		}
		// Failure-driven re-placement: suspend resolution (clients park in
		// AwaitNewer instead of being handed the dead address), then prefer
		// promoting a warm standby — the instance is already bootstrapped
		// and ACTIVE on a surviving pilot, so failover is one registry
		// publish instead of a fresh boot/launch/publish cycle. Only when
		// no standby survives does the watcher fall back to routing the
		// description over the survivors and re-bootstrapping.
		sm.reg.Suspend(h.uid)
		if sm.promoteStandby(h) {
			continue
		}
		newInst, newP, err := sm.replace(h)
		if err != nil {
			sm.reg.Withdraw(h.uid)
			h.finish(err)
			return
		}
		h.mu.Lock()
		h.inst, h.p = newInst, newP
		h.instUID = h.uid
		h.replacements++
		close(h.swapped)
		h.swapped = make(chan struct{})
		h.mu.Unlock()
	}
}

// replace routes h's description onto a surviving live pilot and
// re-submits it under the stable UID. A pilot dying between routing and
// dispatch re-enters routing; a stopped pilot never comes back, so the
// retry count stays bounded.
func (sm *ServiceManager) replace(h *Service) (*service.Instance, *pilot.Pilot, error) {
	d := h.desc
	d.UID = h.uid
	for {
		sm.mu.Lock()
		if sm.closed {
			sm.mu.Unlock()
			return nil, nil, ErrSessionClosed
		}
		p, err := sm.routeLocked(d)
		sm.mu.Unlock()
		if err != nil {
			return nil, nil, fmt.Errorf("core: service %s lost its pilot: %w (%v)",
				h.uid, pilot.ErrPilotStopped, err)
		}
		// Point the handle at the new incarnation before its bootstrap can
		// publish, so the publish mirror accepts the re-publication (and
		// rejects any straggler from the dead pilot).
		h.mu.Lock()
		h.p = p
		h.mu.Unlock()
		sm.sess.journalAppend(journal.KindBind, journal.BindBody{Entity: "service", UID: d.UID, Pilot: p.UID()})
		inst, err := p.Services().Submit(d)
		if err != nil {
			if !p.Live() {
				continue
			}
			return nil, nil, err
		}
		// Close may have slipped in between the closed check and the
		// dispatch: the re-placed instance would outlive the session on a
		// pilot it no longer manages. Undo best-effort and settle — the
		// watcher loop is the only caller, and it treats ErrSessionClosed
		// as final.
		sm.mu.Lock()
		closed := sm.closed
		sm.mu.Unlock()
		if closed {
			_ = p.Services().Terminate(d.UID, false)
			return nil, nil, ErrSessionClosed
		}
		return inst, p, nil
	}
}

// WaitReady blocks until every listed service is ACTIVE (or any fails for
// good). During a failover it waits for the re-placed instance rather
// than surfacing the transient pilot loss.
func (sm *ServiceManager) WaitReady(ctx context.Context, uids ...string) error {
	for _, uid := range uids {
		h, ok := sm.Get(uid)
		if !ok {
			return fmt.Errorf("core: service %s not owned by this manager", uid)
		}
		if err := h.WaitReady(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Terminate stops a managed service and withdraws its endpoint from the
// session registry (parked resolvers fail with service.ErrWithdrawn
// instead of waiting for a re-publication that will never come).
//
// Terminate targets the service's current incarnation: called while a
// failover re-placement is in flight (the replacement not yet ACTIVE),
// it returns service.ErrNotActive and the re-placement proceeds — wait
// for readiness (WaitReady) and retry to stop the migrated instance.
func (sm *ServiceManager) Terminate(uid string, drain bool) error {
	h, ok := sm.Get(uid)
	if !ok {
		return fmt.Errorf("core: service %s not owned by this manager", uid)
	}
	h.mu.Lock()
	if h.finished {
		err := h.err
		h.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w: service %s already settled: %v", service.ErrNotActive, uid, err)
		}
		return fmt.Errorf("%w: service %s already terminated", service.ErrNotActive, uid)
	}
	h.terminated = true
	p := h.p
	// After a warm-standby promotion the pilot-level instance keeps its
	// standby UID; the agent manager must be addressed by that, not the
	// logical UID.
	instUID := h.instUID
	if instUID == "" {
		instUID = h.uid
	}
	h.mu.Unlock()
	if err := p.Services().Terminate(instUID, drain); err != nil {
		h.mu.Lock()
		finishedMeanwhile := h.finished
		h.terminated = false
		h.mu.Unlock()
		if finishedMeanwhile {
			// The hosting pilot died while we were terminating and the
			// watcher, observing the terminate intent, settled the handle
			// instead of re-placing it. The service is down — which is
			// exactly what Terminate asked for — so report success rather
			// than leaking the lost race as an error.
			sm.reg.Withdraw(uid)
			return nil
		}
		if errors.Is(err, service.ErrUnknownService) {
			// A failover re-placement is in flight: h.p already points at
			// the new pilot but its agent manager has not registered the
			// UID yet. Surface the documented not-active contract so
			// callers retry after WaitReady instead of treating it as a
			// hard failure.
			return fmt.Errorf("%w: service %s re-placement in flight (%v)",
				service.ErrNotActive, uid, err)
		}
		return err
	}
	sm.reg.Withdraw(uid)
	return nil
}

// Get returns a managed service handle.
func (sm *ServiceManager) Get(uid string) (*Service, bool) {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	h, ok := sm.services[uid]
	return h, ok
}

// Services returns every managed service handle, sorted by UID —
// submission order for manager-assigned UIDs, which embed the session
// sequence number (caller-supplied UIDs sort lexicographically).
func (sm *ServiceManager) Services() []*Service {
	sm.mu.Lock()
	out := make([]*Service, 0, len(sm.services))
	for _, h := range sm.services {
		out = append(out, h)
	}
	sm.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].uid < out[j].uid })
	return out
}

// Endpoints returns every known endpoint for model (local pilots plus
// remote registrations), in deterministic order.
func (sm *ServiceManager) Endpoints(model string) []proto.Endpoint {
	sm.mu.Lock()
	pilots := append([]*pilot.Pilot{}, sm.pilots...)
	sm.mu.Unlock()
	var out []proto.Endpoint
	for _, p := range pilots {
		out = append(out, p.Registry().ByModel(model)...)
	}
	out = append(out, sm.sess.RemoteEndpoints(model)...)
	sortEndpoints(out)
	return out
}

// QueueDepth reports a managed service's live queue depth (remote
// endpoints report 0: their depth is not observable from the client side).
func (sm *ServiceManager) QueueDepth(uid string) int {
	if h, ok := sm.Get(uid); ok {
		return h.QueueDepth()
	}
	return 0
}

// close stops re-placements: handles losing their pilot after session
// close settle with ErrSessionClosed instead of chasing dying pilots.
func (sm *ServiceManager) close() {
	sm.mu.Lock()
	sm.closed = true
	sm.mu.Unlock()
}
