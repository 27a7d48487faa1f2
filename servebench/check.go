package main

import (
	"runtime"
	"sort"
	"sync"

	"clusterkv/internal/attention"
	"clusterkv/internal/model"
	"clusterkv/internal/rng"
	"clusterkv/internal/serve"
)

// pick returns min(k, len(from)) distinct elements of from, drawn from
// seed, in ascending order of their position in from.
func pick(seed uint64, from []int, k int) []int {
	if k > len(from) {
		k = len(from)
	}
	pos := rng.New(seed ^ 0xc4ec4).Perm(len(from))[:k]
	sort.Ints(pos)
	out := make([]int, k)
	for i, p := range pos {
		out[i] = from[p]
	}
	return out
}

// served returns the indices of records whose request succeeded.
func served(recs []record) []int {
	var out []int
	for i, r := range recs {
		if r.resp.Err == nil {
			out = append(out, i)
		}
	}
	return out
}

// prefilled returns a sequence that has prefilled req's prompt, for the
// serial references. A non-nil snap holds the prompt's first snap.Len()
// tokens already prefilled.
func prefilled(m *model.Model, req serve.Request, sel attention.Selector, budget int, snap *model.Snapshot) *model.Sequence {
	if snap == nil {
		seq := m.NewSequence(sel, budget)
		seq.Prefill(req.Prompt, nil)
		return seq
	}
	seq := m.NewSequenceFrom(snap, sel, budget)
	seq.Prefill(req.Prompt[snap.Len():], nil)
	return seq
}

// decode is the serial reference decode: greedy, re-feeding the last
// prompt token first, as the engine does.
func decode(m *model.Model, req serve.Request, sel attention.Selector) []int {
	seq := prefilled(m, req, sel, req.Budget, nil)
	defer seq.Release()
	logits := make([]float32, m.Config().VocabSize)
	tok := req.Prompt[len(req.Prompt)-1]
	out := make([]int, 0, req.MaxNewTokens)
	for len(out) < req.MaxNewTokens {
		seq.DecodeInto(tok, logits)
		tok = argmax(logits)
		out = append(out, tok)
	}
	return out
}

// argmax is the engine's greedy choice: the lowest index wins ties.
func argmax(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// parallelDo runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallelDo(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int, n) // filled up front: workers only drain it
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// verify compares a seeded sample of k served responses with serial
// reference decodes using a fresh selector of the same kind and a full
// prompt prefill, and reports how many were compared and how many differ.
func verify(m *model.Model, seed uint64, recs []record, k int) (checked, mismatched int) {
	idx := pick(seed, served(recs), k)
	bad := make([]bool, len(idx))
	parallelDo(len(idx), func(j int) {
		r := recs[idx[j]]
		var sel attention.Selector
		if r.req.NewSelector != nil {
			sel = r.req.NewSelector()
		}
		bad[j] = !equal(decode(m, r.req, sel), r.resp.Tokens)
	})
	for _, b := range bad {
		if b {
			mismatched++
		}
	}
	return len(idx), mismatched
}

// fullKVMatch is the share of generated tokens, over a seeded sample of k
// served responses, that the full-attention model also picks greedily when
// fed the same prompt and the same preceding served tokens. The reference
// forks one prefill per distinct shared prefix.
func fullKVMatch(m *model.Model, seed uint64, recs []record, k int) float64 {
	idx := pick(seed^0xf011, served(recs), k)
	if len(idx) == 0 {
		return 0
	}
	snaps := map[uint64]*model.Snapshot{}
	for _, i := range idx {
		req := recs[i].req
		if req.SharedPrefixLen == 0 {
			continue
		}
		key := serve.PrefixKey(req.Prompt[:req.SharedPrefixLen])
		if snaps[key] == nil {
			seq := m.NewSequence(nil, 0)
			seq.Prefill(req.Prompt[:req.SharedPrefixLen], nil)
			snaps[key] = seq.Snapshot()
			seq.Release()
		}
	}
	defer func() {
		for _, s := range snaps {
			s.Release()
		}
	}()
	agree := make([]int, len(idx))
	var tokens int
	for _, i := range idx {
		tokens += len(recs[i].resp.Tokens)
	}
	parallelDo(len(idx), func(j int) {
		r := recs[idx[j]]
		var snap *model.Snapshot
		if r.req.SharedPrefixLen > 0 {
			snap = snaps[serve.PrefixKey(r.req.Prompt[:r.req.SharedPrefixLen])]
		}
		ref := prefilled(m, r.req, nil, 0, snap)
		defer ref.Release()
		logits := make([]float32, m.Config().VocabSize)
		tok := r.req.Prompt[len(r.req.Prompt)-1]
		for _, want := range r.resp.Tokens {
			ref.DecodeInto(tok, logits)
			if argmax(logits) == want {
				agree[j]++
			}
			tok = want
		}
	})
	n := 0
	for _, a := range agree {
		n += a
	}
	return float64(n) / float64(tokens)
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
