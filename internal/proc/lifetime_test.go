package proc

import (
	"fmt"
	"testing"

	"tracep/internal/bench"
	"tracep/internal/isa"
	"tracep/internal/rename"
)

// tagAudit checks the register file against a scan of every tag holder —
// the dispatch-frontier map, the architectural map, and each instruction
// slot's destination and bound live-in operand tags:
//
//   - no premature free: every tag a holder names reads non-nil from Get,
//     and the head PE's mapBefore is the architectural map;
//   - no leak: each live slot's reference count equals the number of
//     holders naming it, and no live slot goes unnamed.
//
// Per-slot counts live in scratch reused across checks, so auditing every
// Step of a run stays cheap.
type tagAudit struct {
	counts []int
	tags   []rename.Tag
}

func (a *tagAudit) check(p *Processor) error {
	n := p.regs.Slots()
	if cap(a.counts) < n {
		a.counts = make([]int, n)
		a.tags = make([]rename.Tag, n)
	}
	a.counts = a.counts[:n]
	clear(a.counts)

	var err error
	hold := func(t rename.Tag, holder string, pe, idx int) {
		if t == 0 || err != nil {
			return
		}
		if p.regs.Get(t) == nil {
			err = fmt.Errorf("cycle %d: %s (PE %d, index %d) names freed tag %#x", p.cycle, holder, pe, idx, t)
			return
		}
		s := rename.SlotIndex(t)
		a.counts[s]++
		a.tags[s] = t
	}
	for r, t := range p.specMap {
		hold(t, "specMap", -1, r)
	}
	for r, t := range p.archMap {
		hold(t, "archMap", -1, r)
	}
	if p.head >= 0 && p.pes[p.head].mapBefore != p.archMap {
		return fmt.Errorf("cycle %d: head PE %d's mapBefore is not the architectural map", p.cycle, p.head)
	}
	for _, pe := range p.pes {
		for _, st := range pe.ptrs {
			hold(st.destTag, "destTag", pe.id, st.slot)
			hold(st.src[0].tag, "src[0]", pe.id, st.slot)
			hold(st.src[1].tag, "src[1]", pe.id, st.slot)
		}
	}
	if err != nil {
		return err
	}
	held := 0
	for s, c := range a.counts {
		if c == 0 {
			continue
		}
		held++
		if refs := p.regs.Refs(a.tags[s]); refs != c {
			return fmt.Errorf("cycle %d: tag %#x has %d references but %d holders", p.cycle, a.tags[s], refs, c)
		}
	}
	if live := p.regs.Size(); live != held {
		return fmt.Errorf("cycle %d: %d live tags but only %d held (%d leaked)", p.cycle, live, held, live-held)
	}
	return nil
}

// runAudited steps p until it halts, fails or retires maxInsts
// instructions, auditing tag lifetimes after every Step.
func runAudited(t *testing.T, p *Processor, maxInsts uint64) {
	t.Helper()
	var a tagAudit
	for !p.done && p.err == nil && p.Stats.RetiredInsts < maxInsts {
		p.Step()
		if err := a.check(p); err != nil {
			t.Fatal(err)
		}
	}
	if p.err != nil {
		t.Fatal(p.err)
	}
}

// TestTagLifetimeAudit runs the lifetime audit after every cycle across the
// suite under the squash, coarse-grain and fine-grain recovery models, so
// every path that moves a tag reference — dispatch, retirement, squash,
// repair install, re-dispatch rebinding, CGCI insertion — is covered.
func TestTagLifetimeAudit(t *testing.T) {
	const insts = 20_000
	models := []Model{ModelBase, ModelRET, ModelMLBRET, ModelFG, ModelFGMLBRET}
	for _, bm := range bench.Suite() {
		prog := bm.Build(bm.ScaleFor(insts))
		for _, m := range models {
			t.Run(bm.Name+"/"+m.Name, func(t *testing.T) {
				runAudited(t, New(prog, m, testConfig()), insts)
			})
		}
	}
}

// TestRegisterFileBounded: with every tag freed at its last reference and
// freed slots reused first, the register file never grows past the
// machine's peak live set — the window's destinations plus the tags the
// rename maps and bound operands still name — however long the run. A
// periodic mark/sweep collector lets this run reach 72,070 slots.
func TestRegisterFileBounded(t *testing.T) {
	bm, err := bench.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const insts = 300_000
	cfg := testConfig()
	p := New(bm.Build(bm.ScaleFor(insts)), ModelFGMLBRET, cfg)
	if _, err := p.Run(insts); err != nil {
		t.Fatal(err)
	}
	bound := 3*cfg.NumPEs*cfg.MaxTraceLen + isa.NumRegs
	t.Logf("gcc/FG+MLB-RET: %d slots after %d insts (bound %d)", p.regs.Slots(), p.Stats.RetiredInsts, bound)
	if p.regs.Slots() > bound {
		t.Errorf("register file reached %d slots, want <= %d", p.regs.Slots(), bound)
	}
}

// TestRunReturnsStatsCopy: the statistics Run returns are a copy, so
// stepping the processor afterwards must not move them (and holding them
// does not pin the processor).
func TestRunReturnsStatsCopy(t *testing.T) {
	p := New(lcgProgram(2000), ModelBase, testConfig())
	stats, err := p.Run(5_000)
	if err != nil {
		t.Fatal(err)
	}
	before := *stats
	for i := 0; i < 1000; i++ {
		p.Step()
	}
	if p.Stats.RetiredInsts == before.RetiredInsts {
		t.Fatal("processor did not advance after Run; the check is vacuous")
	}
	if *stats != before {
		t.Errorf("returned stats moved after further steps: %+v -> %+v", before, *stats)
	}
}
