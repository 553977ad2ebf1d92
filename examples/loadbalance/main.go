// Load balancing (paper §IV-E future work): the prototype uses
// round-robin ("only a rudimentary load balancing"); the future-work
// strategy reroutes to "less used service instances". This example groups
// a fleet of four llama services into one balancing group of the session
// EndpointRegistry, drives it with a bursty client through a balanced
// client per picker, and compares the queueing each strategy induces.
//
// The pilot's placement policy is configurable with -sched
// (strict|backfill|best-fit), threading the scheduler's Policy seam
// end-to-end: with -sched backfill, small client tasks keep flowing even
// while a large request blocks the head of the pilot's wait pool. The
// hosting platform is configurable with -platform: "delta" (the paper's
// homogeneous testbed) or "hetero", the mixed-shape campus, where
// -sched best-fit keeps the fat GPU nodes whole. The session's
// task→pilot router is configurable with -router
// (round-robin|least-loaded|capacity-fit) — one pilot here, so it only
// changes which strategy the TaskManager reports, but it mirrors the
// rpexp -router seam end to end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/router"
	"repro/internal/scheduler"
	"repro/internal/service"
	"repro/internal/simtime"
	"repro/internal/spec"
)

func main() {
	sched := flag.String("sched", scheduler.PolicyStrict,
		"pilot scheduling policy: strict|backfill[:k=N,t=D]|best-fit[:k=N,t=D]")
	plat := flag.String("platform", "delta",
		"hosting platform: delta (homogeneous) or hetero (mixed node shapes)")
	rt := flag.String("router", router.NameRoundRobin,
		"session task router: round-robin|least-loaded|capacity-fit")
	flag.Parse()
	if err := run(*sched, *plat, *rt); err != nil {
		fmt.Fprintf(os.Stderr, "loadbalance: %v\n", err)
		os.Exit(1)
	}
}

func run(sched, plat, rt string) error {
	sess, err := core.NewSession(core.SessionConfig{
		Seed:        5,
		Clock:       simtime.NewScaled(2000, core.DefaultOrigin),
		FastBoot:    true,
		SchedPolicy: sched,
		Router:      rt,
	})
	if err != nil {
		return err
	}
	defer sess.Close()

	// On a homogeneous platform the fleet needs 256 cores / 16 GPUs; on a
	// mixed platform take the whole machine instead — a capacity request
	// would be satisfied by the (index-leading) fat partition alone,
	// leaving the pilot homogeneous and nothing for best-fit to win.
	desc := spec.PilotDescription{Platform: plat, Cores: 256, GPUs: 16}
	if hosting := sess.Topology().Platform(plat); hosting != nil && len(hosting.Shapes()) > 1 {
		desc = spec.PilotDescription{Platform: plat, Nodes: len(hosting.Nodes())}
	}
	p, err := sess.PilotManager().Submit(desc)
	if err != nil {
		return err
	}
	if shapes := p.Shapes(); len(shapes) > 1 {
		fmt.Printf("pilot spans mixed node shapes: %s\n", platform.FormatShapes(shapes))
	}
	sm := sess.ServiceManager()
	sm.AddPilot(p)

	const fleet = 4
	handles := make([]*core.Service, 0, fleet)
	uids := make([]string, 0, fleet)
	for i := 0; i < fleet; i++ {
		inst, err := sm.Submit(spec.ServiceDescription{
			TaskDescription: spec.TaskDescription{Name: fmt.Sprintf("llm-%d", i), GPUs: 1},
			Model:           "llama-8b",
			ProbeInterval:   time.Hour,
		})
		if err != nil {
			return err
		}
		handles = append(handles, inst)
		uids = append(uids, inst.UID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := sm.WaitReady(ctx, uids...); err != nil {
		return err
	}
	fmt.Printf("fleet of %d llama-8b services ready (scheduling policy: %s, task router: %s)\n",
		fleet, p.Scheduler().Policy().Name(), sess.TaskManager().RouterName())

	// The first service's registry group lists the rest of the fleet, so
	// a balanced client of it picks among all four. The client reports
	// every instance's queue gauges at each arrival — the load signal the
	// load-aware picker reads.
	reg := sess.EndpointRegistry()
	for _, uid := range uids[1:] {
		reg.AddMember(uids[0], uid)
	}
	reportLoads := func() {
		now := sess.Clock().Now()
		for _, h := range handles {
			reg.ReportLoad(h.UID(), service.Load{Queued: h.Queued(), InFlight: h.InFlight(), At: now})
		}
	}

	strategies := []struct {
		name   string
		picker loadbal.Picker
	}{
		{"round-robin (paper's rudimentary strategy)", loadbal.NewRoundRobin()},
		{"least-loaded (future-work rerouting)", loadbal.NewLeastLoaded()},
	}
	for k, s := range strategies {
		// A distinct client address per strategy: request UIDs derive from
		// it, and a reused UID would be answered from the servers'
		// completed-request memory instead of being executed.
		client := platform.Addr(plat, "", fmt.Sprintf("burst-client-%d", k))
		bal, err := sess.DialBalancedWith(client, uids[0], s.picker)
		if err != nil {
			return err
		}
		coll := metrics.NewCollector()
		var wg sync.WaitGroup
		// bursty load: 16 staggered requests with skewed sizes, so naive
		// round-robin stacks short requests behind long-tail ones while a
		// depth-aware balancer routes around the busy instances
		for i := 0; i < 16; i++ {
			wg.Add(1)
			sess.Clock().Sleep(400 * time.Millisecond) // arrival spacing
			reportLoads()
			go func(i int) {
				defer wg.Done()
				tokens := 32
				if i%4 == 0 {
					tokens = 1024 // long-tail requests
				}
				reply, rt, err := bal.Infer(ctx, fmt.Sprintf("burst %d", i), tokens)
				if err != nil {
					fmt.Fprintf(os.Stderr, "  request %d: %v\n", i, err)
					return
				}
				_ = reply
				coll.Add("queue", rt.Components["service"])
				coll.Add("total", rt.Total())
			}(i)
		}
		wg.Wait()
		bal.Close()
		fmt.Printf("%s:\n  queueing %s\n  total RT %s\n",
			s.name, coll.Stats("queue"), coll.Stats("total"))
	}
	return nil
}
