package main

import (
	"sort"
	"sync"
	"time"

	"clusterkv/internal/fleet"
	"clusterkv/internal/model"
	"clusterkv/internal/serve"
)

const (
	setupReps    = 3 // set-ups per run; setup_s is their median
	warmRequests = 2
	warmSalt     = 0x3a11f00d // warm-up documents share no prefix with the load
)

// server is the serving stack under test: one engine or a fleet router,
// driven only through their public API.
type server struct {
	eng    *serve.Engine
	router *fleet.Router
}

func start(w workload, m *model.Model, seed uint64) *server {
	cfg := w.config()
	cfg.Seed = seed
	cfg.Workers = serverWidth
	if w.replicas > 0 {
		fc := fleet.DefaultConfig()
		fc.Replicas = w.replicas
		fc.Engine = cfg
		fc.Seed = seed
		return &server{router: fleet.NewRouter(m, fc)}
	}
	return &server{eng: serve.NewEngine(m, cfg)}
}

func (s *server) engines() []*serve.Engine {
	if s.router == nil {
		return []*serve.Engine{s.eng}
	}
	out := make([]*serve.Engine, s.router.Replicas())
	for i := range out {
		out[i] = s.router.Engine(i)
	}
	return out
}

// run serves reqs as one deterministic batch.
func (s *server) run(reqs []serve.Request) []serve.Response {
	if s.router == nil {
		return s.eng.Run(reqs)
	}
	out := make([]serve.Response, len(reqs))
	for i, r := range s.router.Run(reqs) {
		out[i] = r.Response
	}
	return out
}

// submit hands one request to the stack and returns the wait for its
// response.
func (s *server) submit(req serve.Request) func() serve.Response {
	if s.router == nil {
		tk := s.eng.Submit(req)
		return tk.Wait
	}
	tk := s.router.Submit(req)
	return func() serve.Response { return tk.Wait().Response }
}

func (s *server) close() {
	if s.router != nil {
		s.router.Close()
	} else {
		s.eng.Close()
	}
}

// setup builds the model, starts the stack and warms it on requests that
// share no prefix with the measured load, returning how long that took.
func setup(w workload, seed uint64) (*model.Model, *server, time.Duration) {
	t0 := time.Now()
	m := model.New(model.DefaultConfig())
	srv := start(w, m, seed)
	srv.run(w.load(seed^warmSalt, 0, warmRequests))
	return m, srv, time.Since(t0)
}

// record is one measured request. A request is due when it is sent, so
// Response.TTFT is its time to first token: the engine stamps a request
// before Submit can block, so intake backpressure is included.
type record struct {
	idx     int // position in the workload's request stream
	req     serve.Request
	submit  time.Duration // when Submit was called, from the start of the pass
	blocked time.Duration // how long the Submit call took
	resp    serve.Response
}

// tpot is the request's mean gap between output tokens.
func (r record) tpot() time.Duration {
	n := len(r.resp.Tokens)
	if n < 2 {
		return 0
	}
	return (r.resp.Total - r.resp.TTFT) / time.Duration(n-1)
}

func (r record) done() time.Duration { return r.submit + r.resp.Total }

// driveBatches serves the workload's request stream in closed-loop
// batches through Engine.Run until window has been spent serving, or for
// exactly nBatches batches when nBatches > 0. Each batch's requests are
// due when its Run call starts. It returns the records and the time spent
// inside Run.
func driveBatches(srv *server, w workload, seed uint64, window time.Duration, nBatches int,
	prep func([]serve.Request)) ([]record, time.Duration) {
	var recs []record
	var spent time.Duration
	for k := 0; nBatches > 0 && k < nBatches || nBatches == 0 && spent < window; k++ {
		reqs := w.load(seed, k*w.batch, (k+1)*w.batch)
		prep(reqs)
		t := time.Now()
		resps := srv.run(reqs)
		d := time.Since(t)
		for i, resp := range resps {
			recs = append(recs, record{idx: k*w.batch + i, req: reqs[i], submit: spent, resp: resp})
		}
		spent += d
	}
	return recs, spent
}

// driveClients runs w.clients users in a closed loop. The request stream is
// cut into units of w.unit consecutive requests (one question, or one chat
// session's turns); client c takes units c, c+clients, ... and sends each
// request as soon as the previous response arrives, so a request is due
// when it is sent. Clients stop sending at leadIn+window; the records are
// the requests sent from leadIn on, ordered by stream position.
func driveClients(srv *server, w workload, seed uint64, window time.Duration,
	prep func([]serve.Request)) []record {
	start := time.Now()
	per := make([][]record, w.clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := c; ; u += w.clients {
				reqs := w.load(seed, u*w.unit, (u+1)*w.unit)
				prep(reqs)
				for j, req := range reqs {
					at := time.Since(start)
					if at >= leadIn+window {
						return
					}
					wait := srv.submit(req)
					blocked := time.Since(start) - at
					resp := wait()
					if at >= leadIn {
						per[c] = append(per[c], record{idx: u*w.unit + j, req: req, submit: at, blocked: blocked, resp: resp})
					}
				}
			}
		}()
	}
	wg.Wait()
	var recs []record
	for _, r := range per {
		recs = append(recs, r...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].idx < recs[j].idx })
	return recs
}
