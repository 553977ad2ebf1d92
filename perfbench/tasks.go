package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/pilot"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/spec"
	"repro/internal/states"
)

// The tasks workload submits a bag of null tasks (no modelled duration)
// in one TaskManager.Submit to two heterogeneous pilots, routed
// capacity-fit and scheduled backfill: route → grant → launch → execute,
// with no service or transport on the path. Each bag runs on a fresh
// session, so every bag pays the same set-up.
const (
	taskScale = 100000 // session-clock seconds per wall second
	bagSize   = 5000
	minBags   = 3
)

// makeBag draws the bag's shapes: 60% 1-core, 30% 8-core, 10% 4-core+1 GPU.
func makeBag(seed uint64) []spec.TaskDescription {
	src := rng.New(seed).Derive("perfbench.tasks")
	bag := make([]spec.TaskDescription, bagSize)
	for i := range bag {
		d := spec.TaskDescription{Name: fmt.Sprintf("null-%06d", i), Cores: 1}
		switch u := src.Float64(); {
		case u >= 0.9:
			d.Cores, d.GPUs = 4, 1
		case u >= 0.6:
			d.Cores = 8
		}
		bag[i] = d
	}
	return bag
}

func setupTasks(seed uint64) (*core.Session, []*pilot.Pilot, error) {
	sess, err := core.NewSession(core.SessionConfig{
		Seed: seed, Clock: simtime.NewScaled(taskScale, core.DefaultOrigin), FastBoot: true,
		Router: "capacity-fit", SchedPolicy: "backfill",
	})
	if err != nil {
		return nil, nil, err
	}
	var pilots []*pilot.Pilot
	for _, d := range []spec.PilotDescription{
		{Platform: "delta", Cores: 256, GPUs: 16},
		{Platform: "frontier", Nodes: 4},
	} {
		p, err := sess.PilotManager().Submit(d)
		if err != nil {
			sess.Close()
			return nil, nil, err
		}
		sess.TaskManager().AddPilot(p)
		pilots = append(pilots, p)
	}
	return sess, pilots, nil
}

// bagResult is one bag's measurement.
type bagResult struct {
	wall       time.Duration
	turnaround []float64 // wall µs from the Submit call to each task's DONE
	reroutes   int
	overflow   int
}

// runBag submits the bag on sess, waits for it and checks every task
// ended DONE.
func runBag(ctx context.Context, sess *core.Session, bag []spec.TaskDescription, tr *tracer, root int32, out *outcome) (bagResult, error) {
	tm := sess.TaskManager()
	var r bagResult
	origin := sess.Clock().Now()
	t0 := time.Now()
	id := tr.begin("core.submit", root)
	tasks, err := tm.Submit(ctx, bag...)
	tr.end(id, len(bag))
	r.overflow = tm.Overflow()
	if err != nil {
		return r, fmt.Errorf("submit: %w", err)
	}
	id = tr.begin("core.wait", root)
	err = tm.Wait(ctx, tasks...)
	tr.end(id, len(tasks))
	r.wall = time.Since(t0)
	if err != nil {
		out.problem("wait: %v", err)
	}
	for _, t := range tasks {
		if st := t.State(); st != states.TaskDone || t.Err() != nil {
			out.failed++
			if out.failed <= 5 {
				out.problem("task %s ended %s (%v)", t.UID(), st, t.Err())
			}
		}
		r.reroutes += t.Reroutes()
	}
	out.attempted += int64(len(bag))
	// A state machine wakes its waiters before it runs its transition
	// callbacks, so the session profile can trail Wait by the last few
	// DONE records; give it a bounded moment to catch up.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		r.turnaround = r.turnaround[:0]
		for _, e := range sess.Profile().Events() {
			if e.Entity == "task" && e.To == states.TaskDone {
				r.turnaround = append(r.turnaround, float64(e.At.Sub(origin))/taskScale/1e3)
			}
		}
		if len(r.turnaround) >= len(bag) || time.Now().After(deadline) {
			break
		}
	}
	if len(r.turnaround) != len(bag) {
		out.problem("%d DONE transitions recorded for %d tasks", len(r.turnaround), len(bag))
	}
	return r, nil
}

func runTasks(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{}
	bag := makeBag(cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setupOnce := func() (time.Duration, error) {
		t0 := time.Now()
		sess, _, err := setupTasks(cfg.seed)
		d := time.Since(t0)
		if err == nil {
			sess.Close()
		}
		return d, err
	}
	var setups, rates, p50s, p99s []float64
	var tracedWall, untracedWall time.Duration
	var tracedN, untracedN int
	var ms0, ms1 runtime.MemStats
	var allocs, bytes, gcs uint64
	var reroutes, overflow int
	start := time.Now()
	for n := 0; n < minBags || time.Since(start) < cfg.budget(); n++ {
		s, err := timeSetups("tasks", 1, setupOnce)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s...)
		setPhase(fmt.Sprintf("tasks set-up %d", n))
		sess, pilots, err := setupTasks(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Traced runs alternate untraced and traced bags.
		traced := cfg.trace && n%2 == 1
		var btr *tracer
		root := int32(-1)
		if traced {
			btr = tr
			root = tr.begin("bench.bag", -1)
		}
		setPhase(fmt.Sprintf("tasks bag %d", n))
		// Every bag starts from a collected heap, so no bag pays for the
		// garbage of the one before it.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		r, err := runBag(ctx, sess, bag, btr, root, out)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			sess.Close()
			return nil, err
		}
		if traced {
			tracedWall += r.wall
			tracedN++
			reroutes += r.reroutes
			overflow += r.overflow
			setPhase("tasks layer probes")
			if err := taskProbes(ctx, sess, pilots, bag, tr, root, out); err != nil {
				sess.Close()
				return nil, err
			}
			tr.end(root, 1)
		} else {
			untracedWall += r.wall
			untracedN++
			allocs += ms1.Mallocs - ms0.Mallocs
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
			gcs += uint64(ms1.NumGC - ms0.NumGC)
			rates = append(rates, float64(len(bag))/r.wall.Seconds())
			p50s = append(p50s, quantile(r.turnaround, 0.5))
			p99s = append(p99s, quantile(r.turnaround, 0.99))
		}
		setPhase(fmt.Sprintf("tasks teardown %d", n))
		sess.Close()
	}
	p50, p99 := interquartileMean(p50s), interquartileMean(p99s)
	out.set("setup_s", median(setups))
	out.set("throughput", interquartileMean(rates))
	out.set("latency_p50_us", p50)
	out.set("latency_p99_us", p99)
	out.note("tasks: tasks_per_s=%.0f (interquartile means over %d bags of %d) turnaround p50=%.0f us p99=%.0f us setup_s=%.4f (median of %d)",
		interquartileMean(rates), len(rates), bagSize, p50, p99, median(setups), len(setups))
	if cfg.trace {
		ops := float64(untracedN * len(bag))
		out.set("go.allocs_per_op", float64(allocs)/ops)
		out.set("go.bytes_per_op", float64(bytes)/ops)
		out.set("go.gc_cycles", float64(gcs))
		out.set("core.reroutes", float64(reroutes))
		out.set("core.overflow", float64(overflow))
		perTraced := tracedWall.Seconds() / float64(tracedN*len(bag)) * 1e6
		perUntraced := untracedWall.Seconds() / float64(untracedN*len(bag)) * 1e6
		out.set("trace.overhead_us", perTraced-perUntraced)
		out.note("tracing overhead: %.3f us/task traced vs %.3f untraced (bag wall time per task)", perTraced, perUntraced)
		spans := finishTrace(cfg, tr, out)
		for _, m := range []struct {
			metric, span string
			scale        float64
		}{
			{"core.submit_us", "core.submit", 1e3},
			{"router.route_ns", "router.route", 1},
			{"scheduler.grant_us", "scheduler.grant", 1e3},
			{"pilot.submit_us", "pilot.submit", 1e3},
		} {
			v := perOp(spans, m.span)
			out.set(m.metric, v/m.scale)
		}
	}
	return out, nil
}

// taskProbes times the task path's layers one by one on the bag's shapes:
// Router.Route over the live pilots, a standalone backfill scheduler from
// Submit to its PlaceFn call, and Pilot.SubmitTask on a pilot outside the
// task manager.
func taskProbes(ctx context.Context, sess *core.Session, pilots []*pilot.Pilot, bag []spec.TaskDescription, tr *tracer, root int32, out *outcome) error {
	rt, err := router.ByName("capacity-fit")
	if err != nil {
		return err
	}
	targets := make([]router.Target, len(pilots))
	for i, p := range pilots {
		targets[i] = p
	}
	for b := 0; b < probeBatches; b++ {
		id := tr.begin("router.route", root)
		for k := 0; k < probeBatch; k++ {
			if i, err := rt.Route(targets, bag[(b*probeBatch+k)%len(bag)]); err != nil || i < 0 || i >= len(targets) {
				out.problem("router.route: target %d (%v)", i, err)
			}
		}
		tr.end(id, probeBatch)
	}

	policy, err := scheduler.PolicyByName("backfill")
	if err != nil {
		return err
	}
	placed := make(chan scheduler.Placement, 1)
	sched := scheduler.New(platform.NewDelta().Nodes(), func(p scheduler.Placement) { placed <- p }, scheduler.WithPolicy(policy))
	for k := 0; k < probeCalls; k++ {
		d := bag[k%len(bag)]
		id := tr.begin("scheduler.grant", root)
		if err := sched.Submit(scheduler.Request{UID: d.Name, Cores: d.Cores, GPUs: d.GPUs}); err != nil {
			sched.Close()
			return fmt.Errorf("scheduler probe: %w", err)
		}
		p := <-placed
		tr.end(id, 1)
		if p.Req.UID != d.Name {
			out.problem("scheduler.grant: placed %s, want %s", p.Req.UID, d.Name)
		}
		sched.Release(p.Alloc)
	}
	sched.Close()

	p, err := sess.PilotManager().Submit(spec.PilotDescription{Platform: "frontier", Nodes: 2})
	if err != nil {
		return err
	}
	uids := make([]string, 0, probeCalls)
	for k := 0; k < probeCalls; k++ {
		d := bag[k%len(bag)]
		d.Name = fmt.Sprintf("probe-%06d", k)
		id := tr.begin("pilot.submit", root)
		t, err := p.SubmitTask(ctx, d)
		tr.end(id, 1)
		if err != nil {
			return fmt.Errorf("pilot probe: %w", err)
		}
		uids = append(uids, t.UID())
	}
	if err := p.WaitTasks(ctx, uids...); err != nil {
		out.problem("pilot.submit: %v", err)
	}
	for _, uid := range uids {
		if t, ok := p.Task(uid); !ok || t.State() != states.TaskDone {
			out.problem("pilot.submit: task %s did not end DONE", uid)
			break
		}
	}
	return nil
}
