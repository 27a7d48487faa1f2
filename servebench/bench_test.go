package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"testing"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
	synth "clusterkv/internal/workload"
)

// requestDigest hashes everything the engine sees of a request stream.
func requestDigest(reqs []serve.Request) uint64 {
	h := fnv.New64a()
	var seqs [][]int
	for _, r := range reqs {
		name := "full"
		if r.NewSelector != nil {
			name = r.NewSelector().Name()
		}
		h.Write([]byte(name))
		seqs = append(seqs, r.Prompt, []int{r.SharedPrefixLen, r.MaxNewTokens, r.Budget})
	}
	return h.Sum64() ^ digest(seqs...)
}

func TestSeedPlumbing(t *testing.T) {
	for _, w := range workloads {
		a := requestDigest(w.load(1, 0, 16))
		if b := requestDigest(w.load(1, 0, 16)); a != b {
			t.Errorf("%s: seed 1 gave two request streams", w.name)
		}
		if c := requestDigest(w.load(2, 0, 16)); a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.name)
		}
		if c := requestDigest(w.load(1^warmSalt, 0, warmRequests)); a == c {
			t.Errorf("%s: warm-up requests equal the measured ones", w.name)
		}
		// Batches and user units are drawn as ranges of one stream.
		k := max(w.batch, w.unit)
		whole := w.load(1, 0, 2*k)
		split := append(w.load(1, 0, k), w.load(1, k, 2*k)...)
		if requestDigest(whole) != requestDigest(split) {
			t.Errorf("%s: ranges of the request stream disagree", w.name)
		}
	}
}

// smallQA is a short shared-document load whose ClusterKV budget is below
// the context, so selection, prefetch and both layer phases all run.
func smallQA() []serve.Request {
	lc := synth.DefaultLoadConfig()
	lc.NDocs, lc.DocLen, lc.NRequests, lc.QuestionLen, lc.MaxNewTokens = 1, 320, 4, 16, 8
	var out []serve.Request
	for _, q := range synth.NewLoad(lc) {
		out = append(out, serve.Request{Prompt: q.Prompt, SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens: q.MaxNewTokens, Budget: 64, NewSelector: newClusterKV})
	}
	return out
}

func serveAll(m *model.Model, reqs []serve.Request) ([]serve.Response, serve.Metrics) {
	eng := serve.NewEngine(m, serve.DefaultConfig())
	resps := eng.Run(reqs)
	eng.Close()
	return resps, eng.Metrics()
}

func TestTimedSelectorIsTransparent(t *testing.T) {
	m := model.New(model.DefaultConfig())
	plain, _ := serveAll(m, smallQA())

	rec := newRecorder()
	reqs := smallQA()
	for i := range reqs {
		reqs[i].NewSelector = rec.wrap(reqs[i].NewSelector)
	}
	timed, mx := serveAll(m, reqs)

	var a, b [][]int
	for i := range plain {
		if plain[i].Err != nil || timed[i].Err != nil {
			t.Fatalf("request %d failed: %v / %v", i, plain[i].Err, timed[i].Err)
		}
		a, b = append(a, plain[i].Tokens), append(b, timed[i].Tokens)
	}
	if digest(a...) != digest(b...) {
		t.Fatal("traced tokens differ from untraced tokens")
	}
	// Layer-ahead prefetch runs only when the engine handed ClusterKV its
	// transfer runtime through the wrapper.
	if mx.Transfer.PrefetchedPages == 0 {
		t.Error("no prefetched pages: RuntimeAware was not forwarded")
	}
	var kinds [numSpanKinds]int
	for _, s := range rec.selectors() {
		for _, sp := range s.spans {
			kinds[sp.kind]++
			if sp.end < sp.start {
				t.Fatalf("span ends before it starts: %+v", sp)
			}
		}
	}
	for _, k := range []int{spanPrefillLayer, spanDecodeLayer, spanOnPrefill, spanOnAppend, spanSelect, spanSelectFull} {
		if kinds[k] == 0 {
			t.Errorf("no spans of kind %d recorded", k)
		}
	}
}

// stallStub is a Selector with the optional extensions, for checking that
// the wrapper forwards them.
type stallStub struct {
	*baselines.Quest
	before, after int
}

func (s *stallStub) TransferStalls() (float64, float64) { return 1.5, 2.5 }
func (s *stallStub) BeforeLayer(int)                    { s.before++ }
func (s *stallStub) AfterLayer(int)                     { s.after++ }

func TestTimedSelectorForwardsExtensions(t *testing.T) {
	stub := &stallStub{Quest: baselines.NewQuest(baselines.NewQuestConfig())}
	sel := newRecorder().wrap(func() attention.Selector { return stub })()
	sr, ok := sel.(attention.StallReporter)
	if !ok {
		t.Fatal("wrapper does not implement StallReporter")
	}
	if e, h := sr.TransferStalls(); e != 1.5 || h != 2.5 {
		t.Errorf("TransferStalls = %v, %v; want the inner 1.5, 2.5", e, h)
	}
	m := model.New(model.DefaultConfig())
	seq := m.NewSequence(sel, 64)
	seq.Prefill(smallQA()[0].Prompt, nil)
	layers := m.Config().NLayers
	if stub.before != layers || stub.after != layers {
		t.Errorf("layer hooks forwarded %d/%d times, want %d", stub.before, stub.after, layers)
	}
	plain := newRecorder().wrap(newQuest)().(attention.StallReporter)
	if e, h := plain.TransferStalls(); e != 0 || h != 0 {
		t.Errorf("selector without stalls reports %v, %v", e, h)
	}
}

// TestMetricNames runs each mode briefly and checks it emits exactly the
// metrics BENCHMARK.json declares for it.
func TestMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a short load")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	w, _ := lookup("chat-fleet")
	for _, c := range []struct {
		mode string
		res  result
		want []struct{ Name, Unit string }
	}{
		{"end-to-end", measured(w, 1, time.Second), bench.EndToEnd},
		{"per-layer", traced(w, 1, 2*time.Second), bench.PerLayer},
	} {
		if !c.res.Correct || c.res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d", c.mode, c.res.Correct, c.res.Attempted)
		}
		if len(c.res.Metrics) != len(c.want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json declares %d", c.mode, len(c.res.Metrics), len(c.want))
		}
		for _, m := range c.want {
			if got, ok := c.res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s: got %+v, want unit %s", c.mode, m.Name, got, m.Unit)
			}
		}
	}
}

// digest hashes token sequences in order, so two passes over the same
// inputs can be compared in one value.
func digest(seqs ...[]int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, s := range seqs {
		for _, t := range s {
			for i := range b {
				b[i] = byte(uint64(t) >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb, 0xfa, 0xf9, 0xf8}) // separator no token encodes
	}
	return h.Sum64()
}
