package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/msgq"
	"repro/internal/proto"
)

func ep(uid, addr string) proto.Endpoint {
	return proto.Endpoint{ServiceUID: uid, Model: "noop", Address: addr, Protocol: "msgq"}
}

func TestEndpointRegistryPublishResolveGenerations(t *testing.T) {
	r := NewEndpointRegistry()
	if _, _, ok := r.Resolve("svc"); ok {
		t.Fatal("empty registry resolved")
	}
	if g, _ := r.Publish(ep("svc", "a")); g != 1 {
		t.Fatalf("first publish gen = %d, want 1", g)
	}
	got, gen, ok := r.Resolve("svc")
	if !ok || got.Address != "a" || gen != 1 || got.Generation != 1 {
		t.Fatalf("resolve = %+v gen=%d ok=%v", got, gen, ok)
	}
	// re-publication (failover) bumps the generation
	if g, _ := r.Publish(ep("svc", "b")); g != 2 {
		t.Fatalf("re-publish gen = %d, want 2", g)
	}
	got, gen, _ = r.Resolve("svc")
	if got.Address != "b" || gen != 2 {
		t.Fatalf("after re-publish: %+v gen=%d", got, gen)
	}
	if r.Generation("svc") != 2 {
		t.Fatalf("Generation = %d", r.Generation("svc"))
	}
}

func TestEndpointRegistrySuspendHidesButKeepsGeneration(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	r.Suspend("svc")
	if _, _, ok := r.Resolve("svc"); ok {
		t.Fatal("suspended endpoint resolved")
	}
	if g := r.Generation("svc"); g != 1 {
		t.Fatalf("suspend moved the generation: %d", g)
	}
	if got := len(r.All()); got != 0 {
		t.Fatalf("All lists %d suspended endpoints", got)
	}
	// the re-publication is strictly newer than the pre-failover copy
	if g, _ := r.Publish(ep("svc", "b")); g != 2 {
		t.Fatalf("gen after suspend+publish = %d", g)
	}
}

func TestEndpointRegistryAwaitNewerWakesOnRepublish(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	r.Suspend("svc")

	done := make(chan proto.Endpoint, 1)
	go func() {
		got, gen, err := r.AwaitNewer(context.Background(), "svc", 1)
		if err != nil || gen != 2 {
			t.Errorf("AwaitNewer = gen %d err %v", gen, err)
		}
		done <- got
	}()
	// the waiter must genuinely park (no endpoint newer than gen 1 yet)
	select {
	case <-done:
		t.Fatal("AwaitNewer returned before the re-publication")
	case <-time.After(10 * time.Millisecond):
	}
	r.Publish(ep("svc", "b"))
	select {
	case got := <-done:
		if got.Address != "b" {
			t.Fatalf("woke with %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AwaitNewer never woke")
	}
}

func TestEndpointRegistryAwaitNewerImmediateWhenAlreadyNewer(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	r.Publish(ep("svc", "b"))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	got, gen, err := r.AwaitNewer(ctx, "svc", 1)
	if err != nil || gen != 2 || got.Address != "b" {
		t.Fatalf("AwaitNewer = %+v gen %d err %v", got, gen, err)
	}
}

func TestEndpointRegistryWithdrawFailsWaiters(t *testing.T) {
	r := NewEndpointRegistry()
	r.Publish(ep("svc", "a"))
	errs := make(chan error, 1)
	go func() {
		_, _, err := r.AwaitNewer(context.Background(), "svc", 1)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	r.Withdraw("svc")
	select {
	case err := <-errs:
		if !errors.Is(err, ErrWithdrawn) {
			t.Fatalf("err = %v, want ErrWithdrawn", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never failed after withdraw")
	}
	if _, _, ok := r.Resolve("svc"); ok {
		t.Fatal("withdrawn endpoint resolved")
	}
	// a fresh publication clears the tombstone (new incarnation)
	r.Publish(ep("svc", "c"))
	if _, _, ok := r.Resolve("svc"); !ok {
		t.Fatal("re-published endpoint not resolvable")
	}
}

func TestEndpointRegistryAwaitContextExpiry(t *testing.T) {
	r := NewEndpointRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := r.AwaitLive(ctx, "never"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

// TestEndpointRegistryConcurrentResolveDuringRepublish is the satellite's
// race test: resolvers hammer Resolve/AwaitNewer while publishers churn
// the entry through suspend/re-publish cycles. Run under -race; the
// invariant checked is that a resolved endpoint's address always matches
// its generation (no torn read across the swap).
func TestEndpointRegistryConcurrentResolveDuringRepublish(t *testing.T) {
	r := NewEndpointRegistry()
	addrOf := func(gen uint64) string { return fmt.Sprintf("addr-%d", gen) }
	r.Publish(ep("svc", addrOf(1)))

	const cycles = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, gen, ok := r.Resolve("svc"); ok {
					if got.Address != addrOf(gen) || got.Generation != gen {
						t.Errorf("torn read: gen %d address %s", gen, got.Address)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := uint64(1)
		for {
			got, newGen, err := r.AwaitNewer(context.Background(), "svc", gen)
			if err != nil {
				return // withdrawn at the end
			}
			if newGen <= gen || got.Address != addrOf(newGen) {
				t.Errorf("await regressed: had %d got %d (%s)", gen, newGen, got.Address)
				return
			}
			gen = newGen
		}
	}()
	for g := uint64(2); g <= cycles; g++ {
		r.Suspend("svc")
		r.Publish(ep("svc", addrOf(g)))
	}
	r.Withdraw("svc")
	close(stop)
	wg.Wait()
}

// --- resolver ----------------------------------------------------------------

// fakeCaller counts calls against one address and fails — with the
// transport's endpoint-gone error, as a closed msgq server produces —
// once its address is marked dead.
type fakeCaller struct {
	addr  string
	dead  *atomic.Value // current dead address (string)
	calls atomic.Int64
}

func (f *fakeCaller) Infer(ctx context.Context, prompt string, maxTokens int) (proto.InferenceReply, metrics.Breakdown, error) {
	f.calls.Add(1)
	if d, _ := f.dead.Load().(string); d == f.addr {
		return proto.InferenceReply{}, metrics.Breakdown{}, fmt.Errorf("%w: %s", msgq.ErrClosed, f.addr)
	}
	return proto.InferenceReply{Model: "noop", Text: f.addr}, metrics.Breakdown{}, nil
}

func (f *fakeCaller) Close() error { return nil }

func TestResolverStaleGenerationReresolution(t *testing.T) {
	r := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	var dialed []string
	var mu sync.Mutex
	dial := func(e proto.Endpoint) (Caller, error) {
		mu.Lock()
		dialed = append(dialed, e.Address)
		mu.Unlock()
		return &fakeCaller{addr: e.Address, dead: &dead}, nil
	}
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))

	ctx := context.Background()
	reply, _, err := res.Infer(ctx, "p", 0)
	if err != nil || reply.Text != "a" {
		t.Fatalf("first infer = %q err %v", reply.Text, err)
	}
	if res.Reresolved() != 0 {
		t.Fatalf("reresolved = %d before any failover", res.Reresolved())
	}

	// failover: a is dead, b published with a newer generation. The
	// resolver must detect the stale generation and redial without an
	// error surfacing to the caller.
	dead.Store("a")
	r.Suspend("svc")
	r.Publish(ep("svc", "b"))
	reply, _, err = res.Infer(ctx, "p", 0)
	if err != nil || reply.Text != "b" {
		t.Fatalf("post-failover infer = %q err %v", reply.Text, err)
	}
	if res.Reresolved() != 1 {
		t.Fatalf("reresolved = %d, want 1", res.Reresolved())
	}
	mu.Lock()
	want := []string{"a", "b"}
	if len(dialed) != 2 || dialed[0] != want[0] || dialed[1] != want[1] {
		t.Fatalf("dialed %v, want %v", dialed, want)
	}
	mu.Unlock()
}

func TestResolverRetriesThroughMidRequestFailure(t *testing.T) {
	// The harder ordering: the request fails BEFORE the registry knows
	// anything — the resolver must park in AwaitNewer and retry once the
	// re-publication lands.
	r := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("")
	dial := func(e proto.Endpoint) (Caller, error) {
		return &fakeCaller{addr: e.Address, dead: &dead}, nil
	}
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))
	if _, _, err := res.Infer(context.Background(), "p", 0); err != nil {
		t.Fatal(err)
	}

	dead.Store("a") // service crashed; registry not yet updated
	done := make(chan error, 1)
	var text atomic.Value
	go func() {
		reply, _, err := res.Infer(context.Background(), "p", 0)
		text.Store(reply.Text)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("infer settled (%v) before the re-publication", err)
	case <-time.After(10 * time.Millisecond):
	}
	r.Publish(ep("svc", "b"))
	select {
	case err := <-done:
		if err != nil || text.Load().(string) != "b" {
			t.Fatalf("recovered infer = %q err %v", text.Load(), err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver never recovered")
	}
}

// TestResolverSurfacesApplicationError: an application-level error from
// a live service at the current generation (queue full, model error) is
// NOT a failover — it must surface immediately instead of parking the
// caller in AwaitNewer for a re-publication that will never come.
func TestResolverSurfacesApplicationError(t *testing.T) {
	r := NewEndpointRegistry()
	appErr := errors.New("serving: request queue full")
	dial := func(e proto.Endpoint) (Caller, error) {
		return callerFunc(func() (proto.InferenceReply, metrics.Breakdown, error) {
			return proto.InferenceReply{}, metrics.Breakdown{}, appErr
		}), nil
	}
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))
	done := make(chan error, 1)
	go func() {
		_, _, err := res.Infer(context.Background(), "p", 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, appErr) {
			t.Fatalf("err = %v, want the application error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver parked on an application error from a live service")
	}
}

// callerFunc adapts a function to Caller for test stubs.
type callerFunc func() (proto.InferenceReply, metrics.Breakdown, error)

func (f callerFunc) Infer(context.Context, string, int) (proto.InferenceReply, metrics.Breakdown, error) {
	return f()
}
func (f callerFunc) Close() error { return nil }

func TestResolverSurfacesWithdrawal(t *testing.T) {
	r := NewEndpointRegistry()
	var dead atomic.Value
	dead.Store("a")
	dial := func(e proto.Endpoint) (Caller, error) {
		return &fakeCaller{addr: e.Address, dead: &dead}, nil
	}
	res, err := NewResolver(r, "svc", dial, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	r.Publish(ep("svc", "a"))
	errs := make(chan error, 1)
	go func() {
		_, _, err := res.Infer(context.Background(), "p", 0)
		errs <- err
	}()
	time.Sleep(5 * time.Millisecond)
	r.Withdraw("svc") // terminated for good: the resolver must stop waiting
	select {
	case err := <-errs:
		if err == nil {
			t.Fatal("infer succeeded against a withdrawn, dead service")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("resolver hung on a withdrawn service")
	}
}

func TestEndpointRegistryIncarnationFence(t *testing.T) {
	r := NewEndpointRegistry()
	// Journal-less path: fence 0 accepts incarnation-0 publications.
	if _, err := r.Publish(ep("svc", "a")); err != nil {
		t.Fatalf("unfenced publish: %v", err)
	}

	r.SetFence(2)
	if r.Fence() != 2 {
		t.Fatalf("Fence = %d", r.Fence())
	}
	r.SetFence(1) // fences only move forward
	if r.Fence() != 2 {
		t.Fatalf("fence moved backwards: %d", r.Fence())
	}

	stale := ep("svc", "zombie")
	stale.Incarnation = 1
	if _, err := r.Publish(stale); !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("stale publish err = %v, want ErrStaleIncarnation", err)
	}
	if e, _, ok := r.Resolve("svc"); !ok || e.Address != "a" {
		t.Fatalf("stale publish clobbered the entry: %+v ok=%v", e, ok)
	}

	fresh := ep("svc", "successor")
	fresh.Incarnation = 2
	if g, err := r.Publish(fresh); err != nil || g != 2 {
		t.Fatalf("fresh publish gen=%d err=%v", g, err)
	}
}

func TestEndpointRegistryObserverAndRestore(t *testing.T) {
	r := NewEndpointRegistry()
	type event struct {
		op  EndpointOp
		uid string
		gen uint64
	}
	var events []event
	r.SetObserver(func(op EndpointOp, uid string, e proto.Endpoint, gen uint64) {
		events = append(events, event{op, uid, gen})
	})
	r.Publish(ep("svc", "a"))
	r.Suspend("svc")
	r.Publish(ep("svc", "b"))
	r.Withdraw("svc")
	want := []event{
		{EndpointPublish, "svc", 1},
		{EndpointSuspend, "svc", 1},
		{EndpointPublish, "svc", 2},
		{EndpointWithdraw, "svc", 2},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %+v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}

	// Restore seeds a generation floor without making the entry live; the
	// next publish lands strictly above the floor.
	r2 := NewEndpointRegistry()
	r2.Restore("svc", 3, false)
	if _, _, ok := r2.Resolve("svc"); ok {
		t.Fatal("restored entry resolved before a publish")
	}
	if g, err := r2.Publish(ep("svc", "c")); err != nil || g != 4 {
		t.Fatalf("publish after restore gen=%d err=%v, want 4", g, err)
	}
	// Restored tombstone: Await fails immediately with ErrWithdrawn.
	r3 := NewEndpointRegistry()
	r3.Restore("gone", 2, true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, _, err := r3.AwaitLive(ctx, "gone"); !errors.Is(err, ErrWithdrawn) {
		t.Fatalf("await on restored tombstone err = %v, want ErrWithdrawn", err)
	}
}

// groupUIDs returns the group's current balancing view as UIDs, base
// first.
func groupUIDs(r *EndpointRegistry, group string) []string {
	view := r.groupEntry(group).group.Load()
	if view == nil {
		return []string{group}
	}
	out := make([]string, view.Len())
	for i := range out {
		out[i] = view.UID(i)
	}
	return out
}

// TestEndpointRegistryWithdrawLeavesGroup: a withdrawn member leaves its
// balancing group through the same view swap RemoveMember uses, so a
// balanced client stops picking it; withdrawing a UID that is in no
// group, or withdrawing twice, leaves the view alone.
func TestEndpointRegistryWithdrawLeavesGroup(t *testing.T) {
	cases := []struct {
		name     string
		withdraw []string
		want     []string
	}{
		{"first member", []string{"m1"}, []string{"svc", "m2", "m3"}},
		{"middle member", []string{"m2"}, []string{"svc", "m1", "m3"}},
		{"last member", []string{"m3"}, []string{"svc", "m1", "m2"}},
		{"two members", []string{"m3", "m1"}, []string{"svc", "m2"}},
		{"twice", []string{"m2", "m2"}, []string{"svc", "m1", "m3"}},
		{"non-member", []string{"loner"}, []string{"svc", "m1", "m2", "m3"}},
		{"unknown uid", []string{"nobody"}, []string{"svc", "m1", "m2", "m3"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := balReg(3)
			r.Publish(ep("loner", "addr-loner"))
			before := r.groupEntry("svc").group.Load()
			for _, uid := range tc.withdraw {
				r.Withdraw(uid)
			}
			got := groupUIDs(r, "svc")
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("group after withdrawing %v = %v, want %v", tc.withdraw, got, tc.want)
			}
			if len(tc.want) == 4 && r.groupEntry("svc").group.Load() != before {
				t.Fatal("a withdrawal that changed no membership swapped the view")
			}
			if before.Len() != 4 {
				t.Fatalf("a held view changed under a withdrawal: len %d, want 4", before.Len())
			}
		})
	}

	// A withdrawn member that is re-added joins at the end, and a later
	// withdrawal removes it again.
	r := balReg(2)
	r.Withdraw("m1")
	r.AddMember("svc", "m1")
	if got := fmt.Sprint(groupUIDs(r, "svc")); got != "[svc m2 m1]" {
		t.Fatalf("group after re-adding m1 = %s", got)
	}
	r.Withdraw("m1")
	if got := fmt.Sprint(groupUIDs(r, "svc")); got != "[svc m2]" {
		t.Fatalf("group after withdrawing the re-added m1 = %s", got)
	}
}
