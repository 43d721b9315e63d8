// Package clonecomplete exercises the clonecomplete analyzer: a CopyFrom
// method must mention every receiver field unless the field is marked
// //tracep:noclone or the method copies the whole struct.
package clonecomplete

// Good copies field by field.
type Good struct{ a, b int }

// CopyFrom makes g a deep copy of src.
func (g *Good) CopyFrom(src *Good) *Good {
	g.a, g.b = src.a, src.b
	return g
}

// Bad forgets two of its three fields.
type Bad struct{ a, b, c int }

// CopyFrom makes an incomplete copy.
func (g *Bad) CopyFrom(src *Bad) *Bad { // want `Bad\.CopyFrom does not mention field\(s\) b, c`
	g.a = src.a
	return g
}

// Exempt excludes its scratch buffer from the clone contract.
type Exempt struct {
	a       int
	scratch []int //tracep:noclone rebuilt lazily on first use
}

// CopyFrom copies only the contractual state.
func (e *Exempt) CopyFrom(src *Exempt) *Exempt {
	e.a = src.a
	return e
}

// Whole is copied wholesale, which covers every field at once.
type Whole struct{ a, b, c int }

// CopyFrom copies the value wholesale.
func (w *Whole) CopyFrom(src *Whole) *Whole {
	*w = *src
	return w
}

// Literal covers its fields through a keyed literal.
type Literal struct{ a, b int }

// CopyFrom assigns a literal naming each field.
func (l *Literal) CopyFrom(src *Literal) *Literal {
	*l = Literal{a: src.a, b: src.b}
	return l
}

// Unkeyed uses an unkeyed literal, which the type checker already forces to
// be exhaustive.
type Unkeyed struct{ a, b int }

// CopyFrom relies on positional exhaustiveness.
func (u *Unkeyed) CopyFrom(src *Unkeyed) *Unkeyed {
	*u = Unkeyed{src.a, src.b}
	return u
}

// Wrapped has a Clone that delegates to CopyFrom; only CopyFrom is checked.
type Wrapped struct{ a, b int }

// Clone returns a deep copy.
func (w *Wrapped) Clone() *Wrapped { return new(Wrapped).CopyFrom(w) }

// CopyFrom makes w a deep copy of src.
func (w *Wrapped) CopyFrom(src *Wrapped) *Wrapped {
	w.a, w.b = src.a, src.b
	return w
}

// NotACopy is a same-named method on a non-struct receiver: ignored.
type NotACopy int

// CopyFrom on a non-struct receiver is out of scope.
func (n *NotACopy) CopyFrom(src *NotACopy) *NotACopy {
	*n = *src
	return n
}
