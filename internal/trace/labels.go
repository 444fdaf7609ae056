package trace

import "sync"

// OverflowLabel is the value a LabelPool maps every unknown label to once
// it is full. Keeping overflow on one shared value bounds the exposition:
// a client sending a new cohort name per request grows zero new series.
const OverflowLabel = "other"

// DefaultLabelCap bounds a LabelPool when the caller passes no cap.
const DefaultLabelCap = 16

// LabelPool guards a labeled metric family against unbounded cardinality.
// Values registered up front (or the first few observed) get their own
// series and a stable numeric id usable in span args (Span.Args is
// int64-valued, so spans carry the id where the exposition carries the
// name); everything past the cap folds into OverflowLabel.
type LabelPool struct {
	mu    sync.Mutex
	cap   int
	ids   map[string]int64
	names []string
}

// NewLabelPool builds a pool with the given cap (0 = DefaultLabelCap) and
// pre-registers the given values. OverflowLabel is always registered and
// does not count against the cap of the pre-registered values.
func NewLabelPool(cap int, pre ...string) *LabelPool {
	if cap <= 0 {
		cap = DefaultLabelCap
	}
	p := &LabelPool{cap: cap, ids: make(map[string]int64)}
	p.register(OverflowLabel)
	for _, v := range pre {
		p.Canon(v)
	}
	return p
}

// register adds a value unconditionally; caller holds no lock contract
// (only used from constructor and under mu).
func (p *LabelPool) register(v string) int64 {
	id := int64(len(p.names))
	p.ids[v] = id
	p.names = append(p.names, v)
	return id
}

// Canon maps a value to the label it should be recorded under: itself when
// registered or when the pool still has room, OverflowLabel otherwise.
// Empty values canonicalize to OverflowLabel too.
func (p *LabelPool) Canon(v string) string {
	if p == nil || v == "" {
		return OverflowLabel
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.ids[v]; ok {
		return v
	}
	// names includes OverflowLabel, so the distinct-value budget is cap+1.
	if len(p.names) <= p.cap {
		p.register(v)
		return v
	}
	return OverflowLabel
}

// ID returns the canonical value's stable numeric id (OverflowLabel is 0).
func (p *LabelPool) ID(v string) int64 {
	if p == nil {
		return 0
	}
	c := p.Canon(v)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ids[c]
}
