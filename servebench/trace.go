package main

import (
	"sync"
	"time"

	"clusterkv/internal/attention"
	"clusterkv/internal/kvcache"
)

// Span kinds recorded by timedSelector. Layer spans come from the model's
// BeforeLayer/AfterLayer hooks; the others bracket the selector's own calls.
const (
	spanPrefillLayer = iota
	spanDecodeLayer
	spanOnPrefill
	spanOnAppend
	spanSelect     // a Select that chose positions
	spanSelectFull // a Select that returned nil (full attention, bypass layer)
	numSpanKinds
)

// span is one timed interval, in nanoseconds since the recorder's epoch.
type span struct {
	kind       uint8
	start, end int64
}

// recorder collects the spans of every timed selector of one traced pass.
// Each selector appends to its own slice (its calls are sequential), and
// the recorder only gathers the selectors, so the hot path takes no lock.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	sels  []*timedSelector
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// wrap returns a selector factory whose selectors time every call into
// newSel's selectors. A nil recorder returns newSel unchanged.
func (r *recorder) wrap(newSel func() attention.Selector) func() attention.Selector {
	if r == nil || newSel == nil {
		return newSel
	}
	return func() attention.Selector {
		t := &timedSelector{rec: r, inner: newSel()}
		t.la, _ = t.inner.(attention.LayerAware)
		t.ra, _ = t.inner.(attention.RuntimeAware)
		t.sr, _ = t.inner.(attention.StallReporter)
		r.mu.Lock()
		r.sels = append(r.sels, t)
		r.mu.Unlock()
		return t
	}
}

// selectors returns every selector created so far. Call it after the
// engine has retired their requests.
func (r *recorder) selectors() []*timedSelector {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*timedSelector(nil), r.sels...)
}

// timedSelector decorates a Selector with wall-clock spans. It forwards
// the optional LayerAware, RuntimeAware and StallReporter extensions, so
// the engine and the model drive the inner selector exactly as they would
// unwrapped: layer-ahead prefetch and stall attribution keep working.
type timedSelector struct {
	rec   *recorder
	inner attention.Selector
	la    attention.LayerAware
	ra    attention.RuntimeAware
	sr    attention.StallReporter

	spans      []span
	layerStart int64
	// prefilled flips at the first OnPrefill: layer spans before it belong
	// to the prompt prefill, later ones to decode steps.
	prefilled bool
	// onPrefill sums this sequence's OnPrefill time (one value per request).
	onPrefill int64
}

var (
	_ attention.Selector      = (*timedSelector)(nil)
	_ attention.LayerAware    = (*timedSelector)(nil)
	_ attention.RuntimeAware  = (*timedSelector)(nil)
	_ attention.StallReporter = (*timedSelector)(nil)
)

func (t *timedSelector) add(kind uint8, start int64) {
	t.spans = append(t.spans, span{kind: kind, start: start, end: t.rec.now()})
}

func (t *timedSelector) Name() string { return t.inner.Name() }

func (t *timedSelector) Reset(layers, heads, headDim int) {
	t.inner.Reset(layers, heads, headDim)
}

func (t *timedSelector) OnPrefill(layer, head int, s *kvcache.Store) {
	t.prefilled = true
	start := t.rec.now()
	t.inner.OnPrefill(layer, head, s)
	t.add(spanOnPrefill, start)
	t.onPrefill += t.spans[len(t.spans)-1].end - start
}

func (t *timedSelector) OnAppend(layer, head int, s *kvcache.Store) {
	start := t.rec.now()
	t.inner.OnAppend(layer, head, s)
	t.add(spanOnAppend, start)
}

func (t *timedSelector) Select(layer, head int, q []float32, s *kvcache.Store, budget int) []int {
	start := t.rec.now()
	idx := t.inner.Select(layer, head, q, s, budget)
	kind := uint8(spanSelect)
	if idx == nil {
		kind = spanSelectFull
	}
	t.add(kind, start)
	return idx
}

func (t *timedSelector) EndStep()                  { t.inner.EndStep() }
func (t *timedSelector) Stats() attention.SelStats { return t.inner.Stats() }

func (t *timedSelector) BeforeLayer(layer int) {
	if t.la != nil {
		t.la.BeforeLayer(layer)
	}
	t.layerStart = t.rec.now()
}

func (t *timedSelector) AfterLayer(layer int) {
	kind := uint8(spanDecodeLayer)
	if !t.prefilled {
		kind = spanPrefillLayer
	}
	t.add(kind, t.layerStart)
	if t.la != nil {
		t.la.AfterLayer(layer)
	}
}

func (t *timedSelector) SetTransferRuntime(rt *kvcache.TransferRuntime) {
	if t.ra != nil {
		t.ra.SetTransferRuntime(rt)
	}
}

func (t *timedSelector) TransferStalls() (exposedSec, hiddenSec float64) {
	if t.sr != nil {
		return t.sr.TransferStalls()
	}
	return 0, 0
}
