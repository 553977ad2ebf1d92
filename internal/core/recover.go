package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/profile"
	"repro/internal/proto"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/states"
)

// RecoverConfig parameterizes crash recovery. Every field is optional:
// when a surviving pilot is found, its clock and network are adopted (the
// recovered client must share the machines' timeline); the fields below
// only seed a recovery with no survivors.
type RecoverConfig struct {
	// Clock is used when no surviving pilot supplies one (default: a
	// 1000x scaled clock at DefaultOrigin, as in NewSession).
	Clock simtime.Clock
	// Topology is used when no surviving pilot supplies a network
	// (default: the full catalog topology).
	Topology *platform.Topology
	// FlushEvery overrides the reopened journal's fsync batching interval.
	FlushEvery time.Duration
}

// RecoveryReport accounts for every decision Recover made, by entity UID.
// The exact-count ablation (and any operator) reads it instead of diffing
// journals.
type RecoveryReport struct {
	// SessionUID is the recovered session identity (unchanged across
	// incarnations); Incarnation is the new, post-recovery incarnation.
	SessionUID  string
	Incarnation uint64
	// Stats is the journal replay accounting.
	Stats *journal.ReplayStats

	// PilotsAlive lists surviving pilots the session reattached to;
	// PilotsLost lists journaled pilots that died with (or before) the
	// client.
	PilotsAlive []string
	PilotsLost  []string

	// TasksReattached were found still running (or settled) on a
	// surviving pilot; TasksRerouted lost their pilot and re-entered
	// routing; TasksSettled were already final in the journal — or pinned
	// to a dead pilot, which settles them with pilot.ErrPilotStopped.
	TasksReattached []string
	TasksRerouted   []string
	TasksSettled    []string

	// ServicesReattached were found live on a surviving pilot and had
	// their endpoints re-published under the new incarnation;
	// ServicesReplaced lost their pilot and were re-placed on a survivor;
	// ServicesSettled were withdrawn (or pinned to a dead pilot) and stay
	// down.
	ServicesReattached []string
	ServicesReplaced   []string
	ServicesSettled    []string
}

// Recover reconstructs a journaled session after a client crash. It
// replays the write-ahead journal at journalPath into a snapshot, starts
// a new session incarnation under the journaled identity, reattaches to
// every surviving pilot (rebinding the pilot's session-side hooks to the
// new session), and settles every journaled task and service exactly the
// way the pre-crash session would have had it watched the same events:
//
//   - tasks and services that reached a final state stay final;
//   - work still in flight on a surviving pilot is re-pinned and watched;
//   - work whose pilot died while the client was down re-enters routing
//     over the survivors (pinned work settles with ErrPilotStopped,
//     mirroring live failover semantics);
//   - a binding journaled without a matching pilot-side handle (the
//     client crashed between the bind append and the dispatch) is
//     re-dispatched — the WAL writes intent before action, so the torn
//     step re-runs rather than vanishing.
//
// The new incarnation is journaled+1; the endpoint registry's fence moves
// to it, so a zombie publication stamped by the previous incarnation is
// rejected (service.ErrStaleIncarnation) instead of clobbering a
// re-placed successor. Generation floors from the journal guarantee every
// post-recovery re-publication ranks strictly newer than any endpoint a
// pre-crash client may still hold.
func Recover(journalPath string, cfg RecoverConfig) (*Session, *RecoveryReport, error) {
	snap, stats, err := journal.ReplayFile(journalPath)
	if err != nil {
		return nil, &RecoveryReport{Stats: stats}, err
	}
	if snap.Session.UID == "" {
		return nil, &RecoveryReport{Stats: stats}, errors.New("core: journal holds no session record")
	}
	rep := &RecoveryReport{
		SessionUID:  snap.Session.UID,
		Incarnation: snap.Session.Incarnation + 1,
		Stats:       stats,
	}

	// Fail fast on configuration the journaled session used but this build
	// does not know (a journal from a newer version).
	if _, err := scheduler.PolicyByName(snap.Session.SchedPolicy); err != nil {
		return nil, rep, err
	}
	rt, err := router.ByName(snap.Session.Router)
	if err != nil {
		return nil, rep, err
	}
	srt, err := router.ByName(snap.Session.Router)
	if err != nil {
		return nil, rep, err
	}

	// Find the survivors first: the recovered session must share the
	// surviving pilots' clock and network (they model remote machines that
	// kept running), so session assembly adopts them from the first
	// survivor and only falls back to cfg when everything died.
	survivors := make(map[string]*pilot.Pilot)
	for _, ps := range snap.Pilots {
		p, ok := pilot.Lookup(ps.Desc.UID)
		if ok && p.Live() {
			survivors[ps.Desc.UID] = p
			rep.PilotsAlive = append(rep.PilotsAlive, ps.Desc.UID)
		} else {
			rep.PilotsLost = append(rep.PilotsLost, ps.Desc.UID)
		}
	}

	var clock simtime.Clock
	var net *msgq.Network
	topo := cfg.Topology
	if topo == nil {
		topo = platform.DefaultTopology()
	}
	for _, uid := range rep.PilotsAlive {
		clock = survivors[uid].Clock()
		net = survivors[uid].Network()
		break
	}
	// The recovered incarnation derives a fresh RNG stream: the journal
	// does not record how many draws the first life consumed, and replaying
	// the root stream from zero would correlate post-recovery behaviour
	// with already-spent randomness.
	src := rng.New(snap.Session.Seed).Derive(fmt.Sprintf("incarnation.%d", rep.Incarnation))
	if clock == nil {
		clock = cfg.Clock
		if clock == nil {
			clock = simtime.NewScaled(1000, DefaultOrigin)
		}
	}
	if net == nil {
		net = msgq.NewNetwork(clock, src.Derive("net"), topo.Resolver())
	}

	s := &Session{
		uid:        snap.Session.UID,
		clock:      clock,
		src:        src,
		topo:       topo,
		net:        net,
		coll:       metrics.NewCollector(),
		prof:       profile.NewRecorder(),
		remotes:    make(map[string]proto.Endpoint),
		fastBoot:   snap.Session.FastBoot,
		schedPol:   snap.Session.SchedPolicy,
		routerName: snap.Session.Router,
	}
	pub, err := net.BindPub(UpdatesAddr)
	if err != nil {
		return nil, rep, fmt.Errorf("core: recover: updates channel still bound (previous client alive?): %w", err)
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

	// Cut the torn tail before reopening for append: the journal opens in
	// O_APPEND mode, and new records written after a torn fragment would be
	// swallowed as that fragment's payload on the next replay (its length
	// prefix spans them), failing every later recovery with ErrChecksum.
	if stats.TornTail {
		if terr := os.Truncate(journalPath, stats.ValidBytes); terr != nil {
			_ = s.updates.Close()
			return nil, rep, fmt.Errorf("core: recover: truncate torn journal tail: %w", terr)
		}
	}
	jw, err := journal.Open(journal.Config{
		Path: journalPath, Clock: clock, FlushEvery: cfg.FlushEvery,
	})
	if err != nil {
		_ = s.updates.Close()
		return nil, rep, err
	}
	s.jw = jw
	s.incarnation = rep.Incarnation
	if err := s.attachJournal(snap.Session.Seed); err != nil {
		_ = jw.Close()
		_ = s.updates.Close()
		return nil, rep, err
	}

	// Seed registry floors and manager sequence counters from the journal
	// before any re-placement can publish or mint a UID.
	var taskUIDs, svcUIDs []string
	for _, ts := range snap.Tasks {
		taskUIDs = append(taskUIDs, ts.Desc.UID)
	}
	for _, ss := range snap.Services {
		svcUIDs = append(svcUIDs, ss.Desc.UID)
		s.sm.reg.Restore(ss.Desc.UID, ss.Generation, ss.Withdrawn)
	}
	s.tm.seq = journal.MaxSeqSuffix(taskUIDs, s.uid+".task.")
	s.sm.seq = journal.MaxSeqSuffix(svcUIDs, s.uid+".svc.")
	for _, ps := range snap.Pilots {
		prefix := fmt.Sprintf("%s.pilot.%s.", s.uid, ps.Desc.Platform)
		var uids []string
		for _, q := range snap.Pilots {
			uids = append(uids, q.Desc.UID)
		}
		if n := journal.MaxSeqSuffix(uids, prefix); n > s.pm.seq {
			s.pm.seq = n
		}
	}

	// Adopt the survivors: rebind their session-side hooks to this
	// session's Updater, journal and registry mirror, then attach them to
	// the managers. Dead pilots are not resurrected — re-acquiring
	// resources is the operator's call, not Recover's.
	for _, uid := range rep.PilotsAlive {
		p := survivors[uid]
		puid := uid
		p.Rebind(pilot.Hooks{
			PilotState:       s.publishState("pilot"),
			TaskState:        s.publishState("task"),
			ServiceState:     s.publishState("service"),
			OnServicePublish: func(ep proto.Endpoint) { s.sm.mirrorPublish(puid, ep) },
		})
		s.pm.mu.Lock()
		s.pm.pilots[uid] = p
		s.pm.mu.Unlock()
		s.tm.AddPilot(p)
		s.sm.AddPilot(p)
	}

	s.recoverTasks(snap, survivors, rep)
	s.recoverServices(snap, survivors, rep)

	sort.Strings(rep.PilotsAlive)
	sort.Strings(rep.PilotsLost)
	sort.Strings(rep.TasksReattached)
	sort.Strings(rep.TasksRerouted)
	sort.Strings(rep.TasksSettled)
	sort.Strings(rep.ServicesReattached)
	sort.Strings(rep.ServicesReplaced)
	sort.Strings(rep.ServicesSettled)
	return s, rep, nil
}

// recoverTasks re-pins, re-routes or settles every journaled task.
func (s *Session) recoverTasks(snap *journal.Snapshot, survivors map[string]*pilot.Pilot, rep *RecoveryReport) {
	for _, ts := range snap.Tasks {
		uid := ts.Desc.UID
		t := &Task{
			tm: s.tm, uid: uid, desc: ts.Desc,
			ctx: context.Background(), done: make(chan struct{}),
		}
		s.tm.mu.Lock()
		s.tm.tasks[uid] = t
		s.tm.mu.Unlock()

		model := states.ModelFor(states.EntityTask)
		switch {
		case ts.State == states.TaskDone:
			t.finish(nil)
			rep.TasksSettled = append(rep.TasksSettled, uid)
			continue
		case model.IsFinal(ts.State):
			t.finish(fmt.Errorf("core: task %s was %s before the crash", uid, ts.State))
			rep.TasksSettled = append(rep.TasksSettled, uid)
			continue
		}

		if p, ok := survivors[ts.Pilot]; ok {
			if pt, found := p.Task(uid); found {
				// Still in the surviving pilot's hands: re-pin and watch.
				// The watcher settles it (or re-routes, should this pilot
				// die later) exactly as the first incarnation would have.
				t.mu.Lock()
				t.cur, t.p = pt, p
				t.mu.Unlock()
				go s.tm.watch(t, pt, p)
				rep.TasksReattached = append(rep.TasksReattached, uid)
				continue
			}
			// Bind journaled, dispatch lost: the crash hit between the WAL
			// append and the pilot submission. Re-run the torn step.
		}
		if ts.Desc.Pilot != "" {
			// Pinned semantics survive the crash: the pinned pilot is gone
			// (or never received the task), so the task fails the same way
			// a live pinned failover does.
			t.finish(fmt.Errorf("core: task %s pinned to pilot %s: %w",
				uid, ts.Desc.Pilot, pilot.ErrPilotStopped))
			rep.TasksSettled = append(rep.TasksSettled, uid)
			continue
		}
		s.tm.redispatch(t, false)
		rep.TasksRerouted = append(rep.TasksRerouted, uid)
	}
}

// recoverServices reattaches, re-places or settles every journaled
// service. The only journal-authoritative settle marker is the withdraw
// record: every live settle path (session Terminate, own failure on a
// healthy pilot) withdraws before finishing, so a final instance state
// WITHOUT it means the crash interrupted something — either the settle's
// last append, which reattaching resolves (the watcher re-derives the
// settle from the live instance), or a dying pilot's graceful teardown,
// which the live session would have answered with a re-placement.
func (s *Session) recoverServices(snap *journal.Snapshot, survivors map[string]*pilot.Pilot, rep *RecoveryReport) {
	for _, ss := range snap.Services {
		uid := ss.Desc.UID
		h := &Service{
			sm: s.sm, uid: uid, desc: ss.Desc,
			swapped: make(chan struct{}), done: make(chan struct{}),
		}
		s.sm.mu.Lock()
		s.sm.services[uid] = h
		s.sm.mu.Unlock()

		if ss.Withdrawn {
			// Settled for good before the crash. Re-issue the tombstone so
			// the new incarnation's journal and parked resolvers agree.
			s.sm.reg.Withdraw(uid)
			if ss.State == states.ServiceDone {
				h.finish(nil)
			} else {
				h.finish(fmt.Errorf("core: service %s was %s before the crash", uid, ss.State))
			}
			rep.ServicesSettled = append(rep.ServicesSettled, uid)
			continue
		}

		if p, ok := survivors[ss.Pilot]; ok {
			if inst, found := p.Services().Get(uid); found {
				h.mu.Lock()
				h.inst, h.p = inst, p
				h.mu.Unlock()
				if ep := inst.Endpoint(); ep.Address != "" {
					// The instance already published (possibly the very
					// append the crash ate): re-mirror under the new
					// incarnation — the restored generation floor makes
					// this strictly newer than any endpoint a pre-crash
					// client still holds. An instance caught pre-publish
					// publishes through its rebound hook instead.
					s.sm.mirrorPublish(p.UID(), ep)
				}
				go s.sm.watch(h)
				rep.ServicesReattached = append(rep.ServicesReattached, uid)
				continue
			}
			// Bind journaled, dispatch lost — fall through to re-placement.
		}
		if ss.Desc.Pilot != "" {
			s.sm.reg.Withdraw(uid)
			h.finish(fmt.Errorf("core: service %s pinned to pilot %s: %w",
				uid, ss.Desc.Pilot, pilot.ErrPilotStopped))
			rep.ServicesSettled = append(rep.ServicesSettled, uid)
			continue
		}
		// The host died while the client was down (or never got the
		// dispatch): re-place on the survivors, exactly like a live
		// failover — same stable UID, fresh bootstrap, re-publication
		// under the new incarnation.
		inst, p, err := s.sm.replace(h)
		if err != nil {
			s.sm.reg.Withdraw(uid)
			h.finish(err)
			rep.ServicesSettled = append(rep.ServicesSettled, uid)
			continue
		}
		h.mu.Lock()
		h.inst, h.p = inst, p
		h.replacements++
		h.mu.Unlock()
		go s.sm.watch(h)
		rep.ServicesReplaced = append(rep.ServicesReplaced, uid)
	}
}
