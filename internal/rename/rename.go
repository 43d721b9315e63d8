// Package rename implements the trace processor's register dataflow
// management: global rename maps translating architectural registers to
// value tags, per-trace map checkpoints, and the global register file
// holding tag values.
//
// A physical register lives exactly as long as something names it, as on a
// hardware free list. Every holder of a tag takes a reference (Alloc hands
// out the first, Retain adds one, Set moves one between names) and drops it
// with Release; the release that brings a slot's count to zero bumps its
// generation and returns it to a LIFO freelist. Table 1 does not bound the
// physical register file, so allocation never stalls, but the file only
// grows to the machine's peak live set. A tag packs a physical slot index
// with the slot's generation, so lookups are a gen-checked array index, and
// a tag whose slot has been freed (and perhaps reused) reads as invalid.
package rename

import "tracep/internal/isa"

// Tag names a value produced by some instruction (or the initial
// architectural state). Tag 0 is invalid. The low 32 bits hold the physical
// slot index plus one (so a zero word stays invalid), the high 32 bits the
// slot generation at allocation time.
type Tag uint64

// makeTag packs a slot index and generation into a tag.
//
//tracep:noalloc
func makeTag(idx, gen uint32) Tag {
	return Tag(gen)<<32 | Tag(idx+1)
}

// SlotIndex returns the dense physical slot behind t, or -1 for the invalid
// tag. The index is stable while t is live and strictly below Slots(), which
// lets callers maintain their own flat per-slot side tables (the processor's
// subscriber table) without a map.
//
//tracep:noalloc
func SlotIndex(t Tag) int {
	return int(uint32(t)) - 1
}

// Entry is a global register file cell.
type Entry struct {
	Val   int64
	Ready bool
}

// Map translates architectural registers to tags.
type Map [isa.NumRegs]Tag

// pageBits sizes a register-file page: large enough to amortise page
// allocation to noise, small enough not to bloat short runs.
const (
	pageBits = 9
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one fixed-size block of register file slots with their parallel
// metadata lanes. Entries (read on every operand lookup) and metadata
// (generations, reference counts) sit in separate arrays so the hot Get
// path touches densely packed cache lines. A slot is live while its count
// is nonzero.
type page struct {
	ents [pageSize]Entry
	gen  [pageSize]uint32
	refs [pageSize]uint32
}

// File is the global register file: tag -> value storage, laid out as pages
// of slots indexed directly by the tag's low bits. Freed slots go on a
// freelist that Alloc drains before extending the frontier, and each free
// bumps the slot generation so stale tags read as invalid. Clone and
// CopyFrom block-copy pages; Reset keeps them as zeroed capacity.
type File struct {
	pages    []*page
	free     []uint32 // freed slot indexes, drained LIFO
	frontier int      // slots [0, frontier) have been handed out at least once
	slots    int      // total capacity across pages
	used     int      // live slot count

	Allocated uint64
	Freed     uint64
}

// NewFile builds an empty register file.
func NewFile() *File { return new(File).Reset() }

// Reset empties the file in place into the state NewFile builds — no live
// tags, every generation back to zero, zero counters — keeping its pages
// as zeroed capacity for the next Alloc, and returns f.
func (f *File) Reset() *File {
	for _, pg := range f.pages {
		*pg = page{}
	}
	f.free = f.free[:0]
	f.frontier, f.used = 0, 0
	f.slots = len(f.pages) * pageSize
	f.Allocated, f.Freed = 0, 0
	return f
}

// slot resolves a tag to its page and intra-page index, nil page if the tag
// is invalid, out of range, stale, or freed. Freeing a slot moves its
// generation past every tag issued for it, so the generation check alone
// rejects freed tags.
//
//tracep:noalloc
func (f *File) slot(t Tag) (*page, uint32) {
	idx := uint32(t) - 1 // the invalid tag wraps past every frontier
	if int(idx) >= f.frontier {
		return nil, 0
	}
	pg := f.pages[idx>>pageBits]
	s := idx & pageMask
	if pg.gen[s] != uint32(t>>32) {
		return nil, 0
	}
	return pg, s
}

// Alloc creates a new, not-ready tag holding one reference, the caller's.
//
//tracep:noalloc
func (f *File) Alloc() Tag {
	var idx uint32
	if n := len(f.free); n > 0 {
		idx = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		if f.frontier == f.slots {
			//tracep:allow amortised: one page per pageSize allocations
			f.pages = append(f.pages, new(page))
			f.slots += pageSize
		}
		idx = uint32(f.frontier)
		f.frontier++
	}
	pg := f.pages[idx>>pageBits]
	s := idx & pageMask
	pg.ents[s] = Entry{}
	pg.refs[s] = 1
	f.used++
	f.Allocated++
	return makeTag(idx, pg.gen[s])
}

// AllocReady creates a new tag holding v, already ready. Used to seed the
// initial architectural state.
func (f *File) AllocReady(v int64) Tag {
	t := f.Alloc()
	e := f.Get(t)
	e.Val, e.Ready = v, true
	return t
}

// Retain adds a reference to t. Invalid or stale tags are ignored.
//
//tracep:noalloc
func (f *File) Retain(t Tag) {
	if pg, s := f.slot(t); pg != nil {
		pg.refs[s]++
	}
}

// Release drops one reference to t. The last release frees the slot: its
// generation is bumped so t reads as invalid, and the index joins the
// freelist for reuse. Invalid or stale tags are ignored.
//
//tracep:noalloc
func (f *File) Release(t Tag) {
	if pg, s := f.slot(t); pg != nil {
		if pg.refs[s]--; pg.refs[s] == 0 {
			f.freeSlot(pg, s, uint32(t)-1)
		}
	}
}

// freeSlot bumps slot idx's generation and pushes it on the freelist.
//
//tracep:noalloc
func (f *File) freeSlot(pg *page, s, idx uint32) {
	pg.gen[s]++
	//tracep:allow freelist return: freed slots are recycled for Alloc
	f.free = append(f.free, idx)
	f.used--
	f.Freed++
}

// Set points *dst at t, moving the reference *dst holds: t gains one, the
// tag *dst named before loses one.
//
//tracep:noalloc
func (f *File) Set(dst *Tag, t Tag) {
	if *dst != t {
		f.Retain(t)
		f.Release(*dst)
		*dst = t
	}
}

// SetMap points every entry of *dst at src's, as Set does.
//
//tracep:noalloc
func (f *File) SetMap(dst, src *Map) {
	for r := range dst {
		f.Set(&dst[r], src[r])
	}
}

// Refs returns t's reference count, 0 for invalid or stale tags.
func (f *File) Refs(t Tag) int {
	if pg, s := f.slot(t); pg != nil {
		return int(pg.refs[s])
	}
	return 0
}

// Get returns the entry for t (nil for invalid or freed tags).
//
//tracep:noalloc
func (f *File) Get(t Tag) *Entry {
	pg, s := f.slot(t)
	if pg == nil {
		return nil
	}
	return &pg.ents[s]
}

// Write sets t's value and marks it ready, returning whether the value
// changed from a previously ready value (the condition under which
// dependent instructions must reissue).
//
//tracep:noalloc
func (f *File) Write(t Tag, v int64) (changed bool) {
	pg, s := f.slot(t)
	if pg == nil {
		return false
	}
	e := &pg.ents[s]
	changed = !e.Ready || e.Val != v
	e.Val, e.Ready = v, true
	return changed
}

// Unready marks t not-ready again (its producer is being re-executed).
func (f *File) Unready(t Tag) {
	if pg, s := f.slot(t); pg != nil {
		pg.ents[s].Ready = false
	}
}

// Size returns the number of live tags.
//
//tracep:noalloc
func (f *File) Size() int { return f.used }

// Slots returns the allocation frontier: every tag ever handed out has a
// SlotIndex strictly below it. Alloc extends it only when the freelist is
// empty, so it is the file's peak live tag count.
//
//tracep:noalloc
func (f *File) Slots() int { return f.frontier }

// Cap returns the slot capacity of the allocated pages, at least Slots.
// Per-slot side tables grow to it, so they grow a page at a time.
//
//tracep:noalloc
func (f *File) Cap() int { return f.slots }

// Clone returns a deep copy of the register file.
func (f *File) Clone() *File { return new(File).CopyFrom(f) }

// CopyFrom overwrites f with a deep copy of src and returns f: src's pages
// are block-copied into f's, so writes through one file never reach the
// other; pages f lacks come from one contiguous arena, and pages beyond
// src's stay as zeroed capacity. Tag identity (slot numbering,
// generations, reference counts and the freelist) is preserved, which
// keeps rename maps captured alongside src valid against f and makes both
// files hand out identical future tags.
func (f *File) CopyFrom(src *File) *File {
	if n := len(src.pages) - len(f.pages); n > 0 {
		arena := make([]page, n)
		for i := range arena {
			f.pages = append(f.pages, &arena[i])
		}
	}
	for i, pg := range f.pages {
		if i < len(src.pages) {
			*pg = *src.pages[i]
		} else {
			*pg = page{}
		}
	}
	f.free = append(f.free[:0], src.free...)
	f.frontier, f.used = src.frontier, src.used
	f.slots = len(f.pages) * pageSize
	f.Allocated, f.Freed = src.Allocated, src.Freed
	return f
}

// InitialMap seeds a map with fresh ready tags holding zero for every
// architectural register, matching a zeroed machine at reset. The map holds
// each tag's one reference.
func InitialMap(f *File) Map {
	var zero [isa.NumRegs]int64
	return MapFrom(f, &zero)
}

// MapFrom seeds a map with fresh ready tags holding the supplied
// architectural values — a machine restored from a warm-up checkpoint
// rather than reset. InitialMap delegates here, so the reset and restored
// paths allocate identical tag layouts by construction.
func MapFrom(f *File, vals *[isa.NumRegs]int64) Map {
	var m Map
	for r := 1; r < isa.NumRegs; r++ {
		m[r] = f.AllocReady(vals[r])
	}
	return m
}
