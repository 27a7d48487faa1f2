package main

import (
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/baselines"
	"clusterkv/internal/core"
	"clusterkv/internal/serve"
	synth "clusterkv/internal/workload"
)

// workload is one named traffic mix. README.md records why each exists and
// which layer it stresses.
type workload struct {
	name string
	// Exactly one of clients and batch is set. clients is the number of
	// closed-loop users, each sending units of unit consecutive requests;
	// batch is the size of the offline batches that go through Engine.Run
	// back to back.
	clients, unit, batch int
	// replicas > 0 serves through a fleet.Router of that many engines.
	replicas int
	// sloTTFT and sloTPOT are the limits slo_attainment judges. They are
	// fixed here and stated in BENCHMARK.json.
	sloTTFT, sloTPOT time.Duration
	// checks is the size of the seeded sample of served responses compared
	// with serial same-selector reference decodes, and matches the size of
	// the sample whose full-attention reference gives fullkv_match.
	checks, matches int
	config          func() serve.Config
	// load returns requests [lo, hi) of the workload's request stream for
	// a seed; equal arguments give equal requests.
	load func(seed uint64, lo, hi int) []serve.Request
}

const budget = 256 // per-head KV token budget of the compressed tenants

func newClusterKV() attention.Selector { return core.New(core.NewConfig()) }
func newQuest() attention.Selector     { return baselines.NewQuest(baselines.NewQuestConfig()) }

var workloads = []workload{
	{
		name:    "qa-shared",
		clients: 4, unit: 1,
		sloTTFT: 1500 * time.Millisecond, sloTPOT: 60 * time.Millisecond,
		checks: 4, matches: 64,
		config: serve.DefaultConfig,
		load:   qaLoad,
	},
	{
		name:    "chat-fleet",
		clients: 4, unit: chatTurns,
		replicas: 2,
		sloTTFT:  500 * time.Millisecond, sloTPOT: 40 * time.Millisecond,
		checks: 8, matches: 16,
		config: serve.DefaultConfig,
		load:   chatLoad,
	},
	{
		name:    "batch-unique",
		batch:   16,
		sloTTFT: 20 * time.Second, sloTPOT: 250 * time.Millisecond,
		checks: 4, matches: 16,
		config: func() serve.Config {
			c := serve.DefaultConfig()
			// The device tier holds about half of one batch's KV, so the
			// engine spills and promotes between rounds.
			c.KVBudget = 4096
			c.HostBudget = 32768
			return c
		},
		load: uniqueLoad,
	},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func docConfig(seed uint64) synth.DocConfig {
	dc := synth.DefaultDocConfig()
	dc.Seed = seed
	return dc
}

// qaLoad: questions about 4 shared 1024-token documents, ClusterKV tenants.
// Request i asks about document i mod 4, so with 4 closed-loop clients each
// user keeps asking about one document.
func qaLoad(seed uint64, lo, hi int) []serve.Request {
	const docs, docLen, questionLen = 4, 1024, 32
	var out []serve.Request
	for i := lo; i < hi; i++ {
		doc := synth.Doc(docConfig(seed^uint64(i%docs+1)*0x9e3779b97f4a7c15), docLen)
		question := synth.Doc(docConfig(seed^uint64(i+1)*0xbf58476d1ce4e5b9), questionLen)
		out = append(out, serve.Request{
			Prompt:          append(doc, question...),
			SharedPrefixLen: docLen,
			MaxNewTokens:    32,
			Budget:          budget,
			NewSelector:     newClusterKV,
		})
	}
	return out
}

const chatTurns = 8

// chatLoad: multi-turn chat, session-major: request i is turn i mod 8 of
// session i / 8. The ClusterKV budget exceeds every context, so Select
// returns nil and the selector only builds metadata.
func chatLoad(seed uint64, lo, hi int) []serve.Request {
	cc := synth.DefaultConversationConfig()
	cc.Doc = docConfig(seed)
	cc.Turns = chatTurns
	cc.Sessions = (hi + chatTurns - 1) / chatTurns
	cc.MaxNewTokens = 16
	turnMajor := synth.ConversationLoad(cc)
	var out []serve.Request
	for i := lo; i < hi; i++ {
		q := turnMajor[(i%chatTurns)*cc.Sessions+i/chatTurns]
		out = append(out, serve.Request{
			Prompt:          q.Prompt,
			SharedPrefixLen: q.SharedPrefixLen,
			MaxNewTokens:    q.MaxNewTokens,
			Budget:          1024,
			NewSelector:     newClusterKV,
		})
	}
	return out
}

// uniqueLoad: unique 1056-token prompts with no declared shared prefix,
// ClusterKV and Quest tenants alternating.
func uniqueLoad(seed uint64, lo, hi int) []serve.Request {
	var out []serve.Request
	for i := lo; i < hi; i++ {
		prompt := synth.Doc(docConfig(seed^uint64(i+1)*0x9e3779b97f4a7c15), 1056)
		sel := newClusterKV
		if i%2 == 1 {
			sel = newQuest
		}
		out = append(out, serve.Request{
			Prompt:       prompt,
			MaxNewTokens: 32,
			Budget:       budget,
			NewSelector:  sel,
		})
	}
	return out
}

// leadIn is how long the closed-loop users run before the measured window
// opens: long enough for each qa-shared user's first prefill of its
// document to be served, so the window sees the steady state.
const leadIn = 5 * time.Second
