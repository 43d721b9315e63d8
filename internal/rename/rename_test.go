package rename

import (
	"testing"
	"testing/quick"
)

func TestAllocAndWrite(t *testing.T) {
	f := NewFile()
	a := f.Alloc()
	if a == 0 {
		t.Fatal("tags must be nonzero")
	}
	e := f.Get(a)
	if e == nil || e.Ready {
		t.Fatal("fresh tag must exist and be not-ready")
	}
	if changed := f.Write(a, 42); !changed {
		t.Error("first write must report a change")
	}
	if e.Val != 42 || !e.Ready {
		t.Error("write did not take effect")
	}
	if changed := f.Write(a, 42); changed {
		t.Error("idempotent write must not report a change")
	}
	if changed := f.Write(a, 43); !changed {
		t.Error("value change must be reported")
	}
}

func TestWriteInvalidTag(t *testing.T) {
	f := NewFile()
	if f.Write(999, 1) {
		t.Error("write to unknown tag must be a no-op")
	}
	if f.Get(0) != nil {
		t.Error("tag 0 must be invalid")
	}
}

func TestUnready(t *testing.T) {
	f := NewFile()
	a := f.AllocReady(7)
	f.Unready(a)
	if f.Get(a).Ready {
		t.Error("Unready must clear readiness")
	}
	if changed := f.Write(a, 7); !changed {
		t.Error("write after Unready must report a change (consumers must re-read)")
	}
	f.Unready(999) // no-op on unknown tags
}

func TestAllocReady(t *testing.T) {
	f := NewFile()
	a := f.AllocReady(-5)
	e := f.Get(a)
	if !e.Ready || e.Val != -5 {
		t.Error("AllocReady must produce a ready entry")
	}
}

func TestTagsAreUnique(t *testing.T) {
	f := NewFile()
	seen := make(map[Tag]bool)
	for i := 0; i < 1000; i++ {
		tag := f.Alloc()
		if seen[tag] {
			t.Fatalf("duplicate tag %d", tag)
		}
		seen[tag] = true
	}
	if f.Allocated != 1000 {
		t.Errorf("Allocated = %d, want 1000", f.Allocated)
	}
}

// TestRetainRelease pins the reference-counted lifetime: a slot survives
// until its last reference drops, the freeing release bumps its generation
// so the old tag reads as invalid, and freed slots are reused LIFO.
func TestRetainRelease(t *testing.T) {
	f := NewFile()
	a := f.AllocReady(1)
	b := f.AllocReady(2)
	if f.Refs(a) != 1 {
		t.Fatalf("fresh tag refs = %d, want 1", f.Refs(a))
	}
	f.Retain(a)
	f.Release(a)
	if e := f.Get(a); e == nil || e.Val != 1 {
		t.Fatal("tag freed while still referenced")
	}
	f.Release(a)
	f.Release(b)
	if f.Get(a) != nil || f.Get(b) != nil || f.Refs(a) != 0 {
		t.Fatal("stale tag still resolves after its last release")
	}
	if f.Size() != 0 || f.Freed != 2 {
		t.Errorf("size=%d freed=%d, want 0, 2", f.Size(), f.Freed)
	}
	f.Release(a) // stale releases are ignored
	f.Retain(a)
	if f.Size() != 0 {
		t.Error("stale Retain/Release touched the file")
	}

	// LIFO reuse: b's slot (freed last) comes back first, with a bumped
	// generation, then a's; the frontier does not move.
	nb, na := f.Alloc(), f.Alloc()
	if SlotIndex(nb) != SlotIndex(b) || SlotIndex(na) != SlotIndex(a) {
		t.Errorf("reuse order: got slots %d,%d, want %d,%d", SlotIndex(nb), SlotIndex(na), SlotIndex(b), SlotIndex(a))
	}
	if nb == b || na == a {
		t.Error("reused slot kept its generation")
	}
	if f.Get(b) != nil || f.Get(nb) == nil {
		t.Error("stale tag resolves to its slot's new occupant")
	}
	if f.Slots() != 2 {
		t.Errorf("frontier = %d, want 2", f.Slots())
	}

	// Set moves a reference: the new tag gains one, the old loses one.
	m := Map{1: na}
	f.Set(&m[1], nb)
	if f.Get(na) != nil || f.Refs(nb) != 2 || m[1] != nb {
		t.Errorf("Set: old refs %d, new refs %d", f.Refs(na), f.Refs(nb))
	}
}

func TestInitialMap(t *testing.T) {
	f := NewFile()
	m := InitialMap(f)
	if m[0] != 0 {
		t.Error("R0 must not be mapped")
	}
	for r := 1; r < len(m); r++ {
		e := f.Get(m[r])
		if e == nil || !e.Ready || e.Val != 0 {
			t.Errorf("r%d initial tag must be ready zero", r)
		}
	}
}

func TestMapIsValueType(t *testing.T) {
	f := NewFile()
	m := InitialMap(f)
	snapshot := m // plain assignment must checkpoint
	m[5] = f.Alloc()
	if snapshot[5] == m[5] {
		t.Error("map checkpoints must be independent copies")
	}
}

func TestWriteChangeSemantics(t *testing.T) {
	// Property: Write reports a change iff the entry was not ready or held a
	// different value.
	f := NewFile()
	tag := f.Alloc()
	prevReady := false
	var prevVal int64
	check := func(v int64) bool {
		want := !prevReady || prevVal != v
		got := f.Write(tag, v)
		prevReady, prevVal = true, v
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
