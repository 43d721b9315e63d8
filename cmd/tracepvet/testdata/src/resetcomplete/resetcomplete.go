// Package resetcomplete exercises the resetcomplete analyzer: a reset
// method must mention every receiver field unless the field is marked
// //tracep:keep as an arena retained across resets.
package resetcomplete

// Engine resets every field.
type Engine struct {
	cycle int
	queue []int
}

// reset returns the engine to its initial state, keeping queue's storage.
func (e *Engine) reset() {
	e.cycle = 0
	e.queue = e.queue[:0]
}

// Forgetful misses a field added after reset was written.
type Forgetful struct {
	cycle  int
	halted bool
}

// reset leaves halted from the previous run.
func (f *Forgetful) reset() { // want `Forgetful\.reset does not mention field\(s\) halted`
	f.cycle = 0
}

// Pooled retains an arena across resets.
type Pooled struct {
	n    int
	slab []int //tracep:keep carved rows stay valid across resets
}

// reset touches only the state, not the retained slab.
func (p *Pooled) reset() { p.n = 0 }

// Rebuilt resets by overwriting the whole struct.
type Rebuilt struct{ a, b int }

// reset clears everything at once.
func (r *Rebuilt) reset() { *r = Rebuilt{} }
