package rename

import (
	"testing"

	"tracep/internal/isa"
)

// TestFileCloneIndependence: entries are deep-copied — writes through one
// file never reach the other — and tag identity is preserved so maps seeded
// against the original stay valid against the clone.
func TestFileCloneIndependence(t *testing.T) {
	f := NewFile()
	ready := f.AllocReady(42)
	pending := f.Alloc()

	c := f.Clone()
	if got := c.Get(ready); got == nil || !got.Ready || got.Val != 42 {
		t.Fatalf("clone lost ready entry: %+v", got)
	}
	if got := c.Get(pending); got == nil || got.Ready {
		t.Fatalf("clone lost pending entry: %+v", got)
	}

	// Write through the original; the clone's entry must not move.
	f.Write(pending, 7)
	if c.Get(pending).Ready {
		t.Error("original's Write reached the clone")
	}
	// And the reverse.
	c.Write(ready, 99)
	if f.Get(ready).Val != 42 {
		t.Error("clone's Write reached the original")
	}

	// The allocation cursor is copied: both files hand out the same next
	// tag, independently.
	ta, tb := f.Alloc(), c.Alloc()
	if ta != tb {
		t.Errorf("allocation cursors diverged: %d vs %d", ta, tb)
	}
	if c.Get(ta) == nil || f.Get(ta) == nil {
		t.Error("post-clone allocations missing")
	}
}

// TestPagedFileCloneAcrossPages pins the paged layout's clone semantics on a
// file big enough to span several pages, with freelist and generation state
// in play: live entries survive page boundaries, freed tags read as stale
// through both files, writes through either file never reach the other, and
// the copied freelist makes both files hand out identical future tags.
func TestPagedFileCloneAcrossPages(t *testing.T) {
	f := NewFile()
	const n = 3*pageSize + 17
	tags := make([]Tag, n)
	for i := range tags {
		tags[i] = f.AllocReady(int64(i))
	}
	// Free every third tag so the freelist and generation bumps span pages.
	for i, tg := range tags {
		if i%3 == 0 {
			f.Release(tg)
		}
	}

	c := f.Clone()
	if c.Size() != f.Size() || c.Slots() != f.Slots() {
		t.Fatalf("clone counters: size %d/%d, slots %d/%d", c.Size(), f.Size(), c.Slots(), f.Slots())
	}

	// Freed tags are stale through both files.
	for _, i := range []int{0, 3 * pageSize} {
		if f.Get(tags[i]) != nil || c.Get(tags[i]) != nil {
			t.Errorf("freed tag %d still resolves", i)
		}
	}
	// Live entries on every page carry their values.
	for _, i := range []int{1, pageSize - 1, pageSize + 2, 2*pageSize + 1, n - 1} {
		if i%3 == 0 {
			t.Fatalf("probe %d was freed; pick a non-multiple of 3", i)
		}
		if e := c.Get(tags[i]); e == nil || e.Val != int64(i) {
			t.Fatalf("clone lost entry %d: %+v", i, e)
		}
	}

	// Writes are independent, including beyond the first page. (The index
	// must not be a multiple of 3, which the frees above retired.)
	idx := pageSize + 2
	f.Write(tags[idx], -5)
	if c.Get(tags[idx]).Val != int64(idx) {
		t.Error("original's Write reached the clone")
	}
	c.Write(tags[idx], -7)
	if f.Get(tags[idx]).Val != -5 {
		t.Error("clone's Write reached the original")
	}

	// Both files drain the copied freelist in the same order: every future
	// allocation yields the same tag (slot and bumped generation) on each
	// side, first reusing freed slots, then extending the frontier.
	for i := 0; i < n/3+4; i++ {
		ta, tb := f.Alloc(), c.Alloc()
		if ta != tb {
			t.Fatalf("allocation %d diverged: %d vs %d", i, ta, tb)
		}
	}
	if f.Slots() != c.Slots() {
		t.Errorf("frontiers diverged: %d vs %d", f.Slots(), c.Slots())
	}
}

// TestMapFrom: warm values seed ready tags in the same register order as
// InitialMap, so the zero-value case is indistinguishable from reset.
func TestMapFrom(t *testing.T) {
	var vals [isa.NumRegs]int64
	vals[1], vals[31] = 111, 999

	f := NewFile()
	m := MapFrom(f, &vals)
	if e := f.Get(m[1]); e == nil || !e.Ready || e.Val != 111 {
		t.Errorf("r1 entry: %+v", e)
	}
	if e := f.Get(m[31]); e == nil || e.Val != 999 {
		t.Errorf("r31 entry: %+v", e)
	}
	if m[0] != 0 {
		t.Errorf("r0 must stay unmapped, got tag %d", m[0])
	}

	// Same allocation order as InitialMap.
	f2 := NewFile()
	var zero [isa.NumRegs]int64
	mz := MapFrom(f2, &zero)
	f3 := NewFile()
	mi := InitialMap(f3)
	if mz != mi {
		t.Error("MapFrom(zero) and InitialMap allocate different tag layouts")
	}
}
