package isa

import "sort"

// Memory is a sparse, word-addressed data memory. Pages are allocated on
// first touch; reads of untouched words return zero, so speculative
// wrong-path loads are always safe.
type Memory struct {
	pages map[uint32]*page
}

const (
	pageShift = 12
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1
)

type page [pageWords]int64

// NewMemory builds an empty memory, optionally pre-loading the initial data
// image from prog.
func NewMemory(prog *Program) *Memory { return new(Memory).Reset(prog) }

// Reset returns the memory in place to the state NewMemory(prog) builds and
// returns m. Pages already faulted in are kept, zeroed, for reuse: an
// all-zero page reads exactly like an absent one.
func (m *Memory) Reset(prog *Program) *Memory {
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	for _, p := range m.pages { //tracep:orderinvariant independent page clears
		*p = page{}
	}
	if prog != nil {
		for addr, v := range prog.Data { //tracep:orderinvariant keyed writes commute
			m.Write(addr, v)
		}
	}
	return m
}

// Read returns the word at addr (zero if never written).
//
//tracep:noalloc
func (m *Memory) Read(addr uint32) int64 {
	//tracep:allow map access: sparse page directory over the 32-bit address space; one probe per memory op, no allocation
	p, ok := m.pages[addr>>pageShift]
	if !ok {
		return 0
	}
	return p[addr&pageMask]
}

// Write stores v at addr.
//
//tracep:noalloc
func (m *Memory) Write(addr uint32, v int64) {
	idx := addr >> pageShift
	//tracep:allow map access: sparse page directory over the 32-bit address space; one probe per memory op, no allocation
	p, ok := m.pages[idx]
	if !ok {
		//tracep:allow page fault-in: one allocation per touched page, bounded by the data footprint
		p = new(page)
		//tracep:allow map access: fills the page directory once per touched page
		m.pages[idx] = p
	}
	p[addr&pageMask] = v
}

// DumpWords returns every nonzero word as parallel address/value slices in
// ascending address order. The deterministic ordering makes the dump
// suitable for serialisation (snapshot encoding hashes and CRCs it); a
// memory rebuilt by Writing the dumped words back reads identically to the
// original, because unwritten words read as zero.
func (m *Memory) DumpWords() (addrs []uint32, vals []int64) {
	idxs := make([]uint32, 0, len(m.pages))
	for idx := range m.pages { //tracep:orderinvariant sorted below
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		p := m.pages[idx]
		base := idx << pageShift
		for off, v := range p {
			if v != 0 {
				addrs = append(addrs, base|uint32(off))
				vals = append(vals, v)
			}
		}
	}
	return addrs, vals
}

// Clone returns a deep copy, used to give the architectural oracle and the
// timing model independent memories initialised from the same image.
func (m *Memory) Clone() *Memory { return new(Memory).CopyFrom(m) }

// CopyFrom overwrites m with a deep copy of src and returns m. Pages m
// already holds are reused: those src lacks are zeroed, the rest are
// overwritten with src's contents.
func (m *Memory) CopyFrom(src *Memory) *Memory {
	if m.pages == nil {
		m.pages = make(map[uint32]*page, len(src.pages))
	}
	for idx, p := range m.pages { //tracep:orderinvariant independent page clears
		if _, ok := src.pages[idx]; !ok {
			*p = page{}
		}
	}
	for idx, sp := range src.pages { //tracep:orderinvariant map-to-map copy
		if p, ok := m.pages[idx]; ok {
			*p = *sp
		} else {
			np := *sp
			m.pages[idx] = &np
		}
	}
	return m
}
