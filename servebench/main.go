// Command servebench is the repository's serving benchmark. It drives the
// serving stack (serve.Engine, fleet.Router and the Selector contract)
// through its public API on one named workload, checks the served tokens
// against serial reference decodes, and prints one JSON result line:
// end-to-end metrics by default, per-layer metrics with -trace 1.
//
//	go run . -workload qa-shared -seed 1 -seconds 20 -trace 0
//
// README.md describes the workloads, every metric and its unit, and the
// predictions linking the layers to the end-to-end metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/fleet"
	"clusterkv/internal/model"
	"clusterkv/internal/parallel"
	"clusterkv/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: qa-shared, chat-fleet or batch-unique")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds = flag.Float64("seconds", 20, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced pass instead of end-to-end metrics")
	)
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	parallel.SetDefaultWidth(serverWidth)
	hostLine()
	var res result
	if *trace == 1 {
		res = traced(w, *seed, window)
	} else {
		res = measured(w, *seed, window)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "servebench: served outputs do not match the reference")
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// serverWidth is the serving stack's intra-op pool width and each engine's
// step fan-out. On the 2-vCPU host, rounds whose kernels barrier across two
// workers turned host jitter into run-to-run swings of about 18% on
// identical work, against about 5% with one worker; one worker also leaves
// the second CPU to the load generator and the garbage collector.
const serverWidth = 1

// commit is stamped at build time (-ldflags "-X main.commit=...").
var commit = "unknown"

// hostLine prints the host block every result is read against.
func hostLine() {
	host, _ := json.Marshal(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"pool_width": parallel.Default().Width(),
		"numcpu":     runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
	})
	fmt.Printf("host %s\n", host)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// pass is one measured serving pass and the counters read after it.
type pass struct {
	recs    []record
	window  time.Duration // window start to last completion, or time inside Run (batches)
	batches int
	cpu     time.Duration
	rt      runtimeSample
	mx      serve.Metrics // summed over engines where summing is meaningful
	arena   int64         // peak live pages, summed over engines
	fleet   *fleet.Summary
}

// runPass serves the workload's measured load on srv, closes srv, and
// reads its counters. A non-nil rec times every selector.
func runPass(w workload, srv *server, seed uint64, window time.Duration, nBatches int, rec *recorder) pass {
	prep := func(reqs []serve.Request) {
		for i := range reqs {
			reqs[i].NewSelector = rec.wrap(reqs[i].NewSelector)
		}
	}
	var p pass
	rt0, cpu0 := readRuntime(), cpuTime()
	if w.clients > 0 {
		p.recs = driveClients(srv, w, seed, window, prep)
		for _, r := range p.recs {
			p.window = max(p.window, r.done()-leadIn)
		}
	} else {
		p.recs, p.window = driveBatches(srv, w, seed, window, nBatches, prep)
		p.batches = len(p.recs) / w.batch
	}
	srv.close()
	p.cpu = cpuTime() - cpu0
	p.rt = readRuntime().sub(rt0)
	if srv.router != nil {
		s := srv.router.Summary()
		p.fleet = &s
	}
	for _, e := range srv.engines() {
		m := e.Metrics()
		p.arena += e.Arena().PeakPages()
		p.mx.PrefixPartialHits += m.PrefixPartialHits
		p.mx.PrefixEvicted += m.PrefixEvicted
		p.mx.PrefillTokens += m.PrefillTokens
		p.mx.Rounds += m.Rounds
		p.mx.BatchRounds += m.BatchRounds
		p.mx.DecodeStreamsBatched += m.DecodeStreamsBatched
		p.mx.KVPeak += m.KVPeak
		p.mx.KVSpilled += m.KVSpilled
		p.mx.KVHostPeak += m.KVHostPeak
		p.mx.Transfer.Add(m.Transfer)
	}
	return p
}

func failures(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.resp.Err != nil {
			n++
		}
	}
	return n
}

// wellFormed reports whether every successful response carries exactly
// the tokens its request asked for.
func wellFormed(recs []record) bool {
	for _, r := range recs {
		if r.resp.Err == nil && len(r.resp.Tokens) != r.req.MaxNewTokens {
			return false
		}
	}
	return true
}

// measured is the untraced run: end-to-end metrics.
func measured(w workload, seed uint64, window time.Duration) result {
	var m *model.Model
	var srv *server
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.close()
		}
		var d time.Duration
		m, srv, d = setup(w, seed)
		setups = append(setups, d.Seconds())
	}
	p := runPass(w, srv, seed, window, 0, nil)
	memPeak := peakRSSMB() // before the reference decodes below
	checked, bad := verify(m, seed, p.recs, w.checks)
	match := fullKVMatch(m, seed, p.recs, w.matches)
	fmt.Printf("checked %d served responses against serial reference decodes: %d mismatched\n", checked, bad)

	res := result{Attempted: len(p.recs), Failed: failures(p.recs), Metrics: map[string]metric{}}
	res.Correct = bad == 0 && wellFormed(p.recs)
	var ttft, tpot []float64
	var tokens, good, gapN int
	var gaps float64 // ms between first and last token, summed over requests
	for _, r := range p.recs {
		if r.resp.Err != nil {
			continue
		}
		tokens += len(r.resp.Tokens)
		gaps += ms(r.resp.Total - r.resp.TTFT)
		gapN += len(r.resp.Tokens) - 1
		ttft = append(ttft, ms(r.resp.TTFT))
		tpot = append(tpot, ms(r.tpot()))
		if r.resp.TTFT <= w.sloTTFT && r.tpot() <= w.sloTPOT {
			good++
		}
	}
	n := float64(res.Attempted)
	res.set("ttft_p50_ms", "ms", quantile(ttft, 0.5))
	res.set("ttft_p90_ms", "ms", quantile(ttft, 0.90))
	res.set("tpot_mean_ms", "ms", gaps/float64(gapN))
	res.set("tpot_p90_ms", "ms", quantile(tpot, 0.90))
	res.set("slo_attainment", "frac", float64(good)/n)
	res.set("output_tok_s", "tok/s", float64(tokens)/p.window.Seconds())
	res.set("served_frac", "frac", 1-float64(res.Failed)/n)
	res.set("fullkv_match", "frac", match)
	res.set("setup_s", "s", median(setups))
	res.set("mem_peak_mb", "MiB", memPeak)
	fmt.Printf("samples: %d requests (%d ttft/tpot samples), window %.3fs\n", res.Attempted, len(ttft), p.window.Seconds())
	return res
}

// traced is the traced run: the same inputs served untraced and then with
// every selector timed, token-compared, and reported as per-layer metrics.
func traced(w workload, seed uint64, window time.Duration) result {
	half := window / 2
	m, srv, _ := setup(w, seed)
	base := runPass(w, srv, seed, half, 0, nil)
	_, srv, _ = setup(w, seed)
	rec := newRecorder()
	tp := runPass(w, srv, seed, half, base.batches, rec)
	sels := rec.selectors()

	res := result{Attempted: len(tp.recs), Failed: failures(tp.recs), Metrics: map[string]metric{}}
	// Closed-loop clients may send a few more or fewer requests in one pass
	// than in the other; compare the stream positions both passes served.
	untraced := map[int][]int{}
	for _, r := range base.recs {
		untraced[r.idx] = r.resp.Tokens
	}
	same, compared := true, 0
	for _, r := range tp.recs {
		if toks, ok := untraced[r.idx]; ok {
			same = same && equal(toks, r.resp.Tokens)
			compared++
		}
	}
	same = same && compared > 0
	checked, bad := verify(m, seed, tp.recs, w.checks)
	fmt.Printf("traced tokens identical to untraced on %d requests: %v; checked %d served responses against serial reference decodes: %d mismatched\n",
		compared, same, checked, bad)
	res.Correct = same && bad == 0 && wellFormed(tp.recs)
	layerMetrics(&res, w, base, tp, sels)
	return res
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// layerMetrics fills the per-layer metrics. Timings and counters come from
// the traced pass; the Go runtime's allocation and GC counters come from
// the untraced pass, which has no span buffers to allocate.
func layerMetrics(res *result, w workload, base, tp pass, sels []*timedSelector) {
	var byKind [numSpanKinds][]span
	var onPrefill []float64
	var st attention.SelStats
	for _, s := range sels {
		for _, sp := range s.spans {
			byKind[sp.kind] = append(byKind[sp.kind], sp)
		}
		if s.prefilled {
			onPrefill = append(onPrefill, float64(s.onPrefill)/1e6)
		}
		st.Add(s.Stats())
	}
	durs := func(k int, scale float64) []float64 {
		out := make([]float64, len(byKind[k]))
		for i, sp := range byKind[k] {
			out[i] = float64(sp.end-sp.start) / scale
		}
		return out
	}
	selectUS := durs(spanSelect, 1e3)
	res.set("core.onprefill_ms_p50", "ms", quantile(onPrefill, 0.5))
	res.set("core.onprefill_s", "s", sum(onPrefill)/1e3)
	res.set("core.select_us_p50", "us", quantile(selectUS, 0.5))
	res.set("core.select_us_p99", "us", quantile(selectUS, 0.99))
	res.set("core.select_calls", "count", float64(st.SelectCalls))
	res.set("core.onappend_us_p50", "us", quantile(durs(spanOnAppend, 1e3), 0.5))
	res.set("core.cache_hit_frac", "frac", ratio(float64(st.TokensHit), float64(st.TokensHit+st.TokensLoaded)))
	res.set("core.tokens_selected", "count", float64(st.TokensSelected))
	res.set("core.clusters_selected", "count", float64(st.ClustersSelected))

	// Prefill layer spans cover only prompt tokens prefilled under a
	// selector: a request's suffix past a cached shared prefix, or its
	// whole prompt when it declares none.
	var prefilled int
	for _, r := range tp.recs {
		if r.resp.Err == nil {
			prefilled += len(r.req.Prompt) - r.req.SharedPrefixLen
		}
	}
	layers := append(append([]span(nil), byKind[spanPrefillLayer]...), byKind[spanDecodeLayer]...)
	inner := append(append(append([]span(nil), byKind[spanSelect]...), byKind[spanSelectFull]...), byKind[spanOnAppend]...)
	selfNS := covered(append(append([]span(nil), layers...), inner...)) - covered(inner)
	res.set("model.prefill_layer_us_per_token", "us", ratio(sum(durs(spanPrefillLayer, 1e3)), float64(prefilled)))
	decodeLayer := durs(spanDecodeLayer, 1e6)
	res.set("model.decode_layer_ms_p50", "ms", quantile(decodeLayer, 0.5))
	res.set("model.decode_layer_ms_p99", "ms", quantile(decodeLayer, 0.99))
	res.set("model.layer_self_s", "s", float64(selfNS)/1e9)

	var queue, blocked []float64
	var prompt, reused int
	for _, r := range tp.recs {
		queue = append(queue, ms(r.resp.QueueWait))
		blocked = append(blocked, ms(r.blocked))
		prompt += len(r.req.Prompt)
		reused += r.resp.PrefixReusedTokens
	}
	mx := tp.mx
	res.set("serve.queue_wait_ms_p50", "ms", quantile(queue, 0.5))
	res.set("serve.queue_wait_ms_p95", "ms", quantile(queue, 0.95))
	res.set("serve.submit_block_ms_max", "ms", quantile(blocked, 1))
	res.set("serve.prefix_reused_frac", "frac", ratio(float64(reused), float64(prompt)))
	res.set("serve.prefill_tokens", "count", float64(mx.PrefillTokens))
	res.set("serve.prefix_partial_hits", "count", float64(mx.PrefixPartialHits))
	res.set("serve.prefix_evicted", "count", float64(mx.PrefixEvicted))
	res.set("serve.rounds", "count", float64(mx.Rounds))
	res.set("serve.cohort_mean", "streams", ratio(float64(mx.DecodeStreamsBatched), float64(mx.BatchRounds)))

	tr := mx.Transfer
	res.set("kvcache.arena_peak_pages", "count", float64(tp.arena))
	res.set("kvcache.kv_peak_slots", "count", float64(mx.KVPeak))
	res.set("kvcache.spilled_slots", "count", float64(mx.KVSpilled))
	res.set("kvcache.host_peak_slots", "count", float64(mx.KVHostPeak))
	res.set("kvcache.prefetch_hit_frac", "frac", tr.PrefetchHitRate())
	res.set("kvcache.prefetch_dropped", "count", float64(tr.PrefetchDropped))
	res.set("kvcache.xfer_busy_model_ms", "ms", tr.BusySec*1e3)
	res.set("kvcache.xfer_exposed_model_ms", "ms", tr.ExposedSec*1e3)

	var submitUS []float64
	var fs fleet.Summary
	if tp.fleet != nil {
		fs = *tp.fleet
		for _, r := range tp.recs {
			submitUS = append(submitUS, float64(r.blocked)/1e3)
		}
	}
	res.set("fleet.submit_us_p50", "us", quantile(submitUS, 0.5))
	res.set("fleet.submit_us_p99", "us", quantile(submitUS, 0.99))
	res.set("fleet.affinity_hit_frac", "frac",
		ratio(float64(fs.PrefixHits+fs.PrefixPartialHits), float64(fs.PrefixHits+fs.PrefixMisses)))
	res.set("fleet.balance", "ratio", fs.Balance)
	res.set("fleet.rerouted", "count", float64(fs.Rerouted))

	var tokens int
	for _, r := range base.recs {
		tokens += len(r.resp.Tokens)
	}
	res.set("runtime.alloc_bytes_per_token", "B", ratio(base.rt.allocBytes, float64(tokens)))
	res.set("runtime.gc_cycles", "count", base.rt.gcCycles)
	res.set("runtime.gc_cpu_frac", "frac", ratio(base.rt.gcCPU, base.rt.totalCPU))

	res.set("trace.overhead_frac", "frac", ratio(tp.cpu.Seconds(), base.cpu.Seconds())-1)
}
