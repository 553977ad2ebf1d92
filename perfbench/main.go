// Command perfbench is the repository benchmark: one command that runs a
// seeded workload against the runtime's public API, checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also wraps every call it makes into a layer in a span and reports
// the per-layer metrics, a self-time table, and the tracing overhead.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload rt-inproc --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/msgq"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int64
	// problems lists failed correctness checks; any entry fails the run.
	problems []string
	metrics  map[string]metric
	// notes are human-readable lines printed before the result.
	notes []string
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// metricDef names a metric, its unit and the workloads it applies to
// (nil: every workload).
type metricDef struct {
	name, unit string
	on         []string
}

var (
	rtWorkloads = []string{"rt-inproc", "rt-tcp"}
	// The end-to-end metrics apply to every workload; each workload maps
	// them onto what its user sees (see BENCHMARK.json and the notes each
	// run prints under the workload's own metric names).
	endToEnd = []metricDef{
		{"setup_s", "s", nil},
		{"throughput", "1/s", nil},
		{"latency_p50_us", "us", nil},
		{"latency_p99_us", "us", nil},
		{"heap_peak_mb", "MB", nil},
	}
	rtAndCampaign = []string{"rt-inproc", "rt-tcp", "campaign"}
	perLayer      = []metricDef{
		{"service.resolve_ns", "ns", rtWorkloads},
		{"service.pick_ns", "ns", rtWorkloads},
		{"service.decompose_ns", "ns", rtWorkloads},
		{"rt.communication_us", "us", rtAndCampaign},
		{"rt.service_us", "us", rtAndCampaign},
		{"rt.inference_us", "us", rtAndCampaign},
		{"proto.envelope_ns", "ns", rtWorkloads},
		{"proto.frame_encode_ns", "ns", rtWorkloads},
		{"proto.frame_decode_ns", "ns", rtWorkloads},
		{"proto.frame_bytes", "bytes", rtWorkloads},
		{"msgq.rtt_us", "us", rtWorkloads},
		{"msgq.late_replies", "count", rtWorkloads},
		{"msgq.dropped_replies", "count", rtWorkloads},
		{"serving.submit_us", "us", rtWorkloads},
		{"serving.queued", "count", rtAndCampaign},
		{"serving.inflight", "count", rtAndCampaign},
		{"serving.rejected", "count", rtAndCampaign},
		{"loadbal.max_share", "share", []string{"campaign"}},
		{"core.submit_us", "us", []string{"tasks", "campaign"}},
		{"router.route_ns", "ns", []string{"tasks"}},
		{"scheduler.grant_us", "us", []string{"tasks"}},
		{"pilot.submit_us", "us", []string{"tasks"}},
		{"core.reroutes", "count", []string{"tasks"}},
		{"core.overflow", "count", []string{"tasks"}},
		{"campaign.reresolved", "count", []string{"campaign"}},
		{"campaign.tasks_done", "count", []string{"campaign"}},
		{"campaign.vt_p99_drift", "share", []string{"campaign"}},
		{"metrics.sketch_bytes", "bytes", []string{"campaign"}},
		{"go.allocs_per_op", "count", nil},
		{"go.bytes_per_op", "bytes", nil},
		{"go.gc_cycles", "count", nil},
		{"trace.overhead_us", "us", nil},
		{"trace.unaccounted", "share", nil},
	}
)

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (d metricDef) appliesTo(workload string) bool {
	if d.on == nil {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// budget is the measured time of one run.
func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

var workloads = map[string]func(context.Context, config) (*outcome, error){
	"rt-inproc": func(ctx context.Context, c config) (*outcome, error) { return runRT(ctx, c, msgq.TransportInproc) },
	"rt-tcp":    func(ctx context.Context, c config) (*outcome, error) { return runRT(ctx, c, msgq.TransportTCP) },
	"tasks":     runTasks,
	"campaign":  runCampaign,
}

// phase names what the run is doing, for the watchdog's report; steps
// counts phase changes, the watchdog's sign of progress.
var (
	phase atomic.Value
	steps atomic.Int64
)

func setPhase(p string) {
	phase.Store(p)
	steps.Add(1)
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: rt-inproc, rt-tcp, tasks or campaign")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}

	host := readHost()
	hj, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hj)
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)

	setPhase("start")
	startWatchdog(cfg)
	heap := startHeapSampler()
	out, err := run(context.Background(), cfg)
	peak := heap.stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	out.set("heap_peak_mb", peak)
	for _, n := range out.notes {
		fmt.Println(n)
	}
	printAndExit(cfg, out)
}

// printAndExit prints the metric table and the result line, then exits
// non-zero if a correctness check failed.
func printAndExit(cfg config, out *outcome) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, make(map[string]metric)}
	for _, d := range defs {
		m, ok := out.metrics[d.name]
		switch {
		case ok:
			fmt.Printf("  %-24s %14.4f %s\n", d.name, m.Value, m.Unit)
		case d.appliesTo(cfg.workload) || !cfg.trace:
			res.Correct = false
			out.problem("metric %s was not measured", d.name)
			m = metric{Unit: d.unit}
		default:
			// A per-layer metric this workload's path does not cross.
			fmt.Printf("  %-24s %14s %s\n", d.name, "n/a", d.unit)
			m = metric{Unit: d.unit}
		}
		res.Metrics[d.name] = m
	}
	fmt.Printf("  attempted=%d failed=%d\n", out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Watchdog limits: no phase of a healthy run lasts stallLimit, and every
// run must end inside the 180 s the benchmark is allowed.
const (
	stallLimit = time.Minute
	runLimit   = 170 * time.Second
)

// startWatchdog ends a stuck run as failed: when no new phase starts for
// stallLimit, or the run outlives runLimit, it names the phase, prints a
// failed result and exits non-zero.
func startWatchdog(cfg config) {
	start := time.Now()
	go func() {
		last, lastAt := steps.Load(), time.Now()
		for range time.Tick(time.Second) {
			if n := steps.Load(); n != last {
				last, lastAt = n, time.Now()
			}
			reason := ""
			switch {
			case time.Since(lastAt) > stallLimit:
				reason = fmt.Sprintf("no progress for %s", stallLimit)
			case time.Since(start) > runLimit:
				reason = fmt.Sprintf("run exceeded %s", runLimit)
			default:
				continue
			}
			p, _ := phase.Load().(string)
			fmt.Printf("WATCHDOG: %s stuck in phase %q: %s\n", cfg.workload, p, reason)
			fmt.Println(`{"correct":false,"attempted":1,"failed":1,"metrics":{}}`)
			os.Exit(3)
		}
	}()
}

// hostInfo is recorded with every result: wall metrics drift with host
// load and differ across machines.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// timeSetups sets up and tears down one instance of the workload n times;
// setup returns how long its set-up part took. Runs call it between timed
// phases, so the samples spread over the whole run instead of catching
// the host in one moment.
func timeSetups(name string, n int, setup func() (time.Duration, error)) ([]float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		setPhase(fmt.Sprintf("%s set-up", name))
		d, err := setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		v = append(v, d.Seconds())
	}
	return v, nil
}

// interquartileMean returns the mean of v without its lowest and highest
// quarter. Per-round figures here are often bimodal (a rig settles into a
// fast or a slow scheduling pattern), so a median jumps between the modes
// from run to run, while a mean moves only by the share of rounds in
// each; dropping the outer quarters keeps out a burst of host noise that
// hits a few rounds.
func interquartileMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile of v.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// heapSampler tracks the bytes of heap objects (live and not yet swept),
// sampled from runtime/metrics (no stop-the-world) every few
// milliseconds. The reported peak is the 90th percentile of the samples:
// the top of the heap's sawtooth between collections, which one outlying
// cycle or one unlucky sample moves little, unlike the maximum.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var v []float64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			v = append(v, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stopc:
				h.done <- quantile(v, 0.9)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}
