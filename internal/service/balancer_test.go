package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadbal"
	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
)

// scriptCaller is a scripted in-memory backend for balancer tests: it
// answers with the endpoint identity it was dialed for, optionally parks
// on a gate before answering, and fails with the transport's
// endpoint-gone error once its address is marked dead.
type scriptCaller struct {
	uid, addr string
	dead      *atomic.Value // current dead address (string), may be nil
	gate      chan struct{} // when non-nil, Infer blocks here first
	entered   chan struct{} // signaled once per Infer before the gate
}

func (f *scriptCaller) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	if f.dead != nil {
		if d, _ := f.dead.Load().(string); d == f.addr {
			return proto.InferenceReply{}, metrics.Breakdown{}, fmt.Errorf("%w: %s", msgq.ErrClosed, f.addr)
		}
	}
	return proto.InferenceReply{ServiceUID: f.uid, Model: "noop", Text: f.addr}, metrics.Breakdown{}, nil
}

func (f *scriptCaller) Close() error { return nil }

// balReg builds a registry holding base "svc" plus n replica members
// m1..mn, every endpoint published and admitted to the balancing group.
func balReg(n int) *EndpointRegistry {
	reg := NewEndpointRegistry()
	reg.Publish(ep("svc", "addr-svc"))
	for i := 1; i <= n; i++ {
		uid := fmt.Sprintf("m%d", i)
		reg.Publish(ep(uid, "addr-"+uid))
		reg.AddMember("svc", uid)
	}
	return reg
}

func balDial(ep proto.Endpoint) (Caller, error) {
	return &scriptCaller{uid: ep.ServiceUID, addr: ep.Address}, nil
}

// inferN sends n requests through b and counts the serving UIDs.
func inferN(t *testing.T, b *Balancer, n int) map[string]int {
	t.Helper()
	served := map[string]int{}
	for i := 0; i < n; i++ {
		reply, _, err := b.Infer(context.Background(), "x", 0)
		if err != nil {
			t.Fatal(err)
		}
		served[reply.ServiceUID]++
	}
	return served
}

func TestBalancerValidation(t *testing.T) {
	if _, err := NewBalancer(nil, "svc", balDial, BalancerOptions{}); err == nil {
		t.Fatal("NewBalancer accepted a nil registry")
	}
	if _, err := NewBalancer(NewEndpointRegistry(), "svc", nil, BalancerOptions{}); err == nil {
		t.Fatal("NewBalancer accepted a nil dial function")
	}
}

func TestBalancerRoundRobinAcrossMembers(t *testing.T) {
	reg := balReg(2)
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	served := inferN(t, b, 9)
	if len(served) != 3 || served["svc"] != 3 || served["m1"] != 3 || served["m2"] != 3 {
		t.Fatalf("served = %v, want 3 each (round robin)", served)
	}
}

// TestBalancerPicksUpNewMembers: a member added to the registry group
// after the client was built is picked without re-creating the client.
func TestBalancerPicksUpNewMembers(t *testing.T) {
	reg := balReg(0)
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if served := inferN(t, b, 1); served["svc"] != 1 {
		t.Fatalf("served = %v before the join, want svc", served)
	}
	reg.Publish(ep("b", "addr-b"))
	reg.AddMember("svc", "b")
	if served := inferN(t, b, 8); served["svc"] != 4 || served["b"] != 4 {
		t.Fatalf("served = %v after the join, want 4/4", served)
	}
}

// TestBalancerFollowsWithdrawal: withdrawing a member drops it from the
// group, so every later request lands on the survivors.
func TestBalancerFollowsWithdrawal(t *testing.T) {
	reg := balReg(1)
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Picker: loadbal.NewRoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if served := inferN(t, b, 2); served["svc"] != 1 || served["m1"] != 1 {
		t.Fatalf("served = %v, want both members warm", served)
	}
	reg.Withdraw("m1")
	if served := inferN(t, b, 4); served["svc"] != 4 {
		t.Fatalf("served = %v after withdrawing m1, want all on svc", served)
	}
}

// TestBalancerLeastLoadedPrefersIdleMember: with the busy instance first
// in the group, a load-blind first pick would choose it; the least-loaded
// picker reads the reports and routes to the idle member.
func TestBalancerLeastLoadedPrefersIdleMember(t *testing.T) {
	reg := balReg(1)
	now := time.Unix(1000, 0)
	reg.ReportLoad("svc", Load{Queued: 4, At: now})
	reg.ReportLoad("m1", Load{At: now})
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Picker: loadbal.NewLeastLoaded(),
		Now:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if served := inferN(t, b, 1); served["m1"] != 1 {
		t.Fatalf("served = %v, want the idle member m1", served)
	}
}

// TestBalancerRepublicationDuringInFlightError pins the evict-on-error
// race that generation-aware member resolvers rule out: a request in
// flight against generation G errors after the endpoint was already
// republished at G+1 and a fresh connection to G+1 was warmed by another
// request. Evicting cached connections by UID on any error would tear
// down the healthy G+1 connection and force a third dial.
func TestBalancerRepublicationDuringInFlightError(t *testing.T) {
	reg := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var dials atomic.Int64
	dial := func(e proto.Endpoint) (Caller, error) {
		n := dials.Add(1)
		c := &scriptCaller{uid: e.ServiceUID, addr: e.Address, dead: &dead}
		if n == 1 {
			// only the first (generation-1) connection parks on the gate
			c.gate, c.entered = gate, entered
		}
		return c, nil
	}
	b, err := NewBalancer(reg, "svc", dial, BalancerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	reg.Publish(ep("svc", "gen1-addr"))
	req1 := make(chan error, 1)
	go func() {
		_, _, err := b.Infer(context.Background(), "x", 0)
		req1 <- err
	}()
	<-entered // request 1 is in flight against the generation-1 connection

	// failover: generation 1 dies, generation 2 is republished, and a
	// second request warms the generation-2 connection (dial #2)
	dead.Store("gen1-addr")
	reg.Suspend("svc")
	reg.Publish(ep("svc", "gen2-addr"))
	reply, _, err := b.Infer(context.Background(), "x", 0)
	if err != nil || reply.Text != "gen2-addr" {
		t.Fatalf("post-republish infer = %q err %v", reply.Text, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after warming generation 2, want 2", n)
	}

	// request 1's error finally lands, carrying generation 1: the
	// resolver must retry on the cached generation-2 connection, not
	// evict it
	close(gate)
	select {
	case err := <-req1:
		if err != nil {
			t.Fatalf("in-flight request did not fail over: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never settled")
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after the stale error, want 2 (gen-2 connection evicted?)", n)
	}
	// and the client keeps serving on the surviving connection
	if _, _, err := b.Infer(context.Background(), "x", 0); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("dials = %d after follow-up request, want 2", n)
	}
}

func TestBalancerClosedRejects(t *testing.T) {
	b, err := NewBalancer(balReg(1), "svc", balDial, BalancerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Close()
	if _, _, err := b.Infer(context.Background(), "x", 0); err == nil {
		t.Fatal("Infer succeeded on a closed balancer")
	}
}

func TestBalancerNoMembersPicksBase(t *testing.T) {
	reg := NewEndpointRegistry()
	reg.Publish(ep("svc", "addr-svc"))
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 4; i++ {
		if got := b.Pick(); got != "svc" {
			t.Fatalf("Pick = %q with no members, want svc", got)
		}
	}
}

// TestBalancerP2CPickDistribution pins the seeded probe sequence: with
// one member carrying a deep queue and fresh reports all around, p2c
// never routes to it — identical probes are nudged apart, so the hot
// member always loses its comparison — while blind rotation would send
// it a full quarter. The counts are exact: seeded splitmix64 walk, no
// wall clock.
func TestBalancerP2CPickDistribution(t *testing.T) {
	reg := balReg(3)
	now := time.Unix(1000, 0)
	for _, uid := range []string{"svc", "m1", "m3"} {
		reg.ReportLoad(uid, Load{Queued: 0, At: now})
	}
	reg.ReportLoad("m2", Load{Queued: 100, At: now}) // the hot member

	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed:    1,
		Now:     func() time.Time { return now },
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const picks = 1600
	got := map[string]int{}
	for i := 0; i < picks; i++ {
		got[b.Pick()]++
	}
	want := map[string]int{"svc": 490, "m1": 487, "m2": 0, "m3": 623}
	for uid, n := range want {
		if got[uid] != n {
			t.Fatalf("pick counts = %v, want %v (seeded sequence changed?)", got, want)
		}
	}
	// the property behind the pinned numbers: the hot member gets far
	// less than the 400 a load-blind rotation would send it
	if got["m2"] >= picks/4 {
		t.Fatalf("hot member got %d/%d picks — load-blind", got["m2"], picks)
	}

	// determinism: a same-seed balancer reproduces the sequence exactly
	b2, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed:    1,
		Now:     func() time.Time { return now },
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	got2 := map[string]int{}
	for i := 0; i < picks; i++ {
		got2[b2.Pick()]++
	}
	for uid, n := range got {
		if got2[uid] != n {
			t.Fatalf("same-seed replay diverged: %v vs %v", got2, got)
		}
	}
}

// TestBalancerStaleReportsFallBackToRotation: when the load reports are
// older than the horizon the picker must not trust them — picks degrade
// to blind rotation, which spreads exactly evenly.
func TestBalancerStaleReportsFallBackToRotation(t *testing.T) {
	reg := balReg(3)
	reported := time.Unix(1000, 0)
	now := reported.Add(time.Minute) // far beyond the 1s horizon
	reg.ReportLoad("svc", Load{Queued: 0, At: reported})
	reg.ReportLoad("m1", Load{Queued: 0, At: reported})
	reg.ReportLoad("m2", Load{Queued: 100, At: reported})
	reg.ReportLoad("m3", Load{Queued: 0, At: reported})

	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed:    1,
		Now:     func() time.Time { return now },
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := map[string]int{}
	for i := 0; i < 400; i++ {
		got[b.Pick()]++
	}
	for _, uid := range []string{"svc", "m1", "m2", "m3"} {
		if got[uid] != 100 {
			t.Fatalf("stale-report picks = %v, want an exact 100 each (rotation)", got)
		}
	}
}

// TestBalancerNoTimebaseIgnoresLoad: without a Now source every report
// counts as stale — the balancer must still work, spreading by rotation.
func TestBalancerNoTimebaseIgnoresLoad(t *testing.T) {
	reg := balReg(1)
	reg.ReportLoad("svc", Load{Queued: 100, At: time.Unix(1000, 0)})
	reg.ReportLoad("m1", Load{Queued: 0, At: time.Unix(1000, 0)})
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := map[string]int{}
	for i := 0; i < 100; i++ {
		got[b.Pick()]++
	}
	if got["svc"] != 50 || got["m1"] != 50 {
		t.Fatalf("no-timebase picks = %v, want 50/50 rotation", got)
	}
}

// TestBalancerMembershipChurnDuringPick hammers Pick while the
// autoscaler's membership calls run concurrently: the atomically-swapped
// immutable view must keep every pick valid (base or a member that was
// alive at some recent instant) with no torn reads — the race detector
// is the other half of this test.
func TestBalancerMembershipChurnDuringPick(t *testing.T) {
	reg := balReg(4)
	now := time.Unix(1000, 0)
	valid := map[string]bool{"svc": true, "m1": true, "m2": true, "m3": true, "m4": true}
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed:    7,
		Now:     func() time.Time { return now },
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			uid := fmt.Sprintf("m%d", i%4+1)
			reg.RemoveMember("svc", uid)
			reg.ReportLoad(uid, Load{Queued: i % 5, At: now})
			reg.AddMember("svc", uid)
		}
	}()

	var bad atomic.Value
	var pickers sync.WaitGroup
	for g := 0; g < 4; g++ {
		pickers.Add(1)
		go func() {
			defer pickers.Done()
			for i := 0; i < 20000; i++ {
				if uid := b.Pick(); !valid[uid] {
					bad.Store(uid)
					return
				}
			}
		}()
	}
	pickers.Wait()
	close(stop)
	<-churnDone
	if u := bad.Load(); u != nil {
		t.Fatalf("Pick returned unknown UID %q during churn", u)
	}
}

// TestBalancerPickZeroAllocs enforces the acceptance budget: the pick
// path — view load, two probes, fallback check — allocates nothing.
func TestBalancerPickZeroAllocs(t *testing.T) {
	reg := balReg(7)
	now := time.Unix(1000, 0)
	reg.ReportLoad("svc", Load{Queued: 1, At: now})
	for i := 1; i <= 7; i++ {
		reg.ReportLoad(fmt.Sprintf("m%d", i), Load{Queued: i, At: now})
	}
	b, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed:    3,
		Now:     func() time.Time { return now },
		Horizon: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if avg := testing.AllocsPerRun(1000, func() { b.Pick() }); avg != 0 {
		t.Fatalf("Pick allocates %.1f objects per call, want 0", avg)
	}
}

// BenchmarkBalancerPick measures the constant-time pick path over an
// 8-wide group (base + 7 members) with fresh load reports.
func BenchmarkBalancerPick(b *testing.B) {
	reg := balReg(7)
	now := time.Unix(1000, 0)
	reg.ReportLoad("svc", Load{Queued: 1, At: now})
	for i := 1; i <= 7; i++ {
		reg.ReportLoad(fmt.Sprintf("m%d", i), Load{Queued: i, At: now})
	}
	bal, err := NewBalancer(reg, "svc", balDial, BalancerOptions{
		Seed:    3,
		Now:     func() time.Time { return now },
		Horizon: time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bal.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bal.Pick()
	}
}
