package proc

import (
	"context"
	"errors"
	"fmt"

	"tracep/internal/bpred"
	"tracep/internal/cache"
	"tracep/internal/core"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/rename"
)

// ErrIncompatibleSnapshot is the sentinel wrapped by every error
// NewFromSnapshot returns for a configuration that cannot restore a given
// snapshot; callers test with errors.Is.
var ErrIncompatibleSnapshot = errors.New("snapshot incompatible with configuration")

// Snapshot is an immutable checkpoint of simulation state taken after a
// functional warm-up: the architectural state (registers, PC, memory) after
// the first warmupInsts instructions of the program, plus the
// microarchitectural structures that warm-up touches along the committed
// path — instruction and data cache arrays, branch-predictor counters,
// indirect targets and return-address stack, and the BIT's memoised FGCI
// analyses. Structures whose contents depend on the trace-selection model
// (trace cache, next-trace predictor, value predictor) are not captured:
// a restore resets them from the configuration, which is what makes one
// snapshot restorable under every model — the warm-up region is simulated
// once per program, not once per (program, model) cell. Only the branch
// predictor's start state depends on the seed, so the snapshots of one
// CaptureSnapshots pass — one per seed — share the emulator, register
// file and map, caches and BIT read-only; each holds its own predictor.
//
// A Snapshot is never mutated after capture and every restore copies out
// of it (the CopyFrom methods of internal/{cache,bpred,rename,emu,isa,
// core}), shared structures included, so any number of simulations may be
// forked from one snapshot, or from sibling snapshots, concurrently.
type Snapshot struct {
	prog        *isa.Program
	cfg         Config // capture-time configuration
	warmupInsts uint64

	// emu holds the architectural state at the checkpoint: registers, PC,
	// memory, and the executed-instruction count. It seeds both the timing
	// model's committed memory and (under Config.Verify) the oracle.
	emu *emu.Emulator

	// regs/rmap are the global register file and rename map seeded with the
	// warm architectural register values.
	regs *rename.File
	rmap rename.Map

	icache *cache.ICache
	dcache *cache.DCache
	bp     *bpred.Predictor
	bit    *core.BIT
}

// Program returns the program the snapshot was captured from. Restored
// processors run this exact program image.
func (s *Snapshot) Program() *isa.Program { return s.prog }

// WarmupInsts returns how many instructions the capture fast-forwarded.
func (s *Snapshot) WarmupInsts() uint64 { return s.warmupInsts }

// PC returns the architectural program counter at the checkpoint — the
// first instruction of the measured region.
func (s *Snapshot) PC() uint32 { return s.emu.PC }

// Config returns the capture-time configuration.
func (s *Snapshot) Config() Config { return s.cfg }

// CaptureSnapshot fast-forwards the first warmupInsts instructions of prog
// functionally and checkpoints the result; it is CaptureSnapshots with a
// single configuration.
func CaptureSnapshot(ctx context.Context, prog *isa.Program, cfg Config, warmupInsts uint64) (*Snapshot, error) {
	snaps, err := CaptureSnapshots(ctx, prog, []Config{cfg}, warmupInsts)
	if err != nil {
		return nil, err
	}
	return snaps[0], nil
}

// CaptureSnapshots fast-forwards the first warmupInsts instructions of prog
// functionally — the emulator executes them architecturally, no timing is
// modelled — and warms the model-independent structures along the committed
// path exactly once:
//
//   - the instruction cache, one line fill per line transition of the
//     committed instruction stream;
//   - the data cache, one access per load/store effective address;
//   - the branch predictors, one per configuration, trained in lock-step:
//     direction counters trained with actual outcomes, indirect targets
//     recorded, the return-address stack maintained across calls and
//     returns;
//   - the BIT, one lookup per committed forward conditional branch (which
//     also memoises the pure FGCI region analysis).
//
// Structure access counters are then zeroed so a restored run's statistics
// cover the measured region only.
//
// This is the fast-forward-then-checkpoint methodology of sampled
// simulation: predictors and caches observe the true execution history, so
// the measured region starts from steady state rather than from a cold
// machine, and — because the committed path is the same under every
// trace-selection model and every predictor seed — a single pass serves the
// whole model × seed grid. It returns one snapshot per configuration, in
// order; the snapshots share the architectural state, caches and BIT
// read-only and each holds its own branch predictor and configuration.
// Only the branch predictor may differ between the configurations: ones
// that disagree on the caches or the effective BIT configuration (which
// follows MaxTraceLen), or an empty cfgs, are reported as errors wrapping
// ErrIncompatibleSnapshot.
//
// warmupInsts may be zero, in which case each snapshot is a reset-state
// checkpoint and a restored run is identical to a cold New. The warm-up
// must end strictly before the program halts; running into the halt
// instruction is an error (there would be no measured region left).
//
// Cancelling ctx abandons the capture promptly (within ~a thousand
// emulated instructions) and returns the context's error — long warm-ups
// honour the same cancellation contract as simulation itself.
func CaptureSnapshots(ctx context.Context, prog *isa.Program, cfgs []Config, warmupInsts uint64) ([]*Snapshot, error) {
	if prog == nil {
		return nil, errors.New("snapshot: nil program")
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("snapshot: %w: no configuration to capture", ErrIncompatibleSnapshot)
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if err := sharedPassMismatch(cfgs[0], cfg); err != nil {
			return nil, err
		}
	}

	cfg := cfgs[0]
	e := emu.New(prog)
	ic := cache.NewICache(cfg.ICache)
	dc := cache.NewDCache(cfg.DCache)
	bit := core.NewBIT(prog, effectiveBITConfig(cfg))
	bps := make([]*bpred.Predictor, len(cfgs))
	for i, c := range cfgs {
		bps[i] = bpred.New(effectiveBPredConfig(c))
	}

	var lastPC uint32
	for i := uint64(0); i < warmupInsts; i++ {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec := e.Step()
		if rec.Halted {
			return nil, fmt.Errorf("snapshot: warm-up of %d instructions runs past the program's halt (%d executed)",
				warmupInsts, i)
		}
		if i == 0 || !ic.SameLine(lastPC, rec.PC) {
			ic.Fetch(rec.PC)
		}
		lastPC = rec.PC

		in := rec.Inst
		switch {
		case in.IsCondBranch():
			for _, bp := range bps {
				bp.UpdateDirection(rec.PC, rec.Taken)
			}
			if in.IsForwardBranch(rec.PC) {
				bit.Lookup(rec.PC)
			}
		case in.IsCall():
			for _, bp := range bps {
				bp.PushRAS(rec.PC + 1)
				if in.Op == isa.OpCallR {
					bp.UpdateIndirect(rec.PC, rec.NextPC)
				}
			}
		case in.Op == isa.OpRet:
			for _, bp := range bps {
				bp.PopRAS()
				bp.UpdateIndirect(rec.PC, rec.NextPC)
			}
		case in.Op == isa.OpJr:
			for _, bp := range bps {
				bp.UpdateIndirect(rec.PC, rec.NextPC)
			}
		case in.IsMem():
			dc.Access(rec.Addr)
		}
	}

	// Freeze: the warmed contents stay, the measured region counts from
	// zero.
	ic.ResetStats()
	dc.ResetStats()
	bit.ResetStats()

	f := rename.NewFile()
	m := rename.MapFrom(f, &e.Regs)

	snaps := make([]*Snapshot, len(cfgs))
	for i, bp := range bps {
		bp.ResetStats()
		snaps[i] = &Snapshot{
			prog:        prog,
			cfg:         cfgs[i],
			warmupInsts: warmupInsts,
			emu:         e,
			regs:        f,
			rmap:        m,
			icache:      ic,
			dcache:      dc,
			bp:          bp,
			bit:         bit,
		}
	}
	return snaps, nil
}

// sharedPassMismatch reports the first field on which two capture
// configurations disagree about a structure the shared warm-up pass builds
// once: everything but the branch predictor.
func sharedPassMismatch(a, b Config) error {
	mismatch := func(field string, x, y any) error {
		return fmt.Errorf("%w: capture configurations disagree on %s: %+v vs %+v",
			ErrIncompatibleSnapshot, field, x, y)
	}
	switch {
	case a.ICache != b.ICache:
		return mismatch("ICache", a.ICache, b.ICache)
	case a.DCache != b.DCache:
		return mismatch("DCache", a.DCache, b.DCache)
	case effectiveBITConfig(a) != effectiveBITConfig(b):
		return mismatch("BIT", effectiveBITConfig(a), effectiveBITConfig(b))
	}
	return nil
}

// CompatibleWith reports whether a processor configured with cfg can be
// restored from the snapshot: every field that sizes or seeds a snapshotted
// structure must match the capture-time configuration. Fields that only
// shape the measured simulation — PE count, issue width, bus counts and
// latencies, verification, watchdog — may differ freely, so a window-sizing
// sweep can share one warm-up.
func (s *Snapshot) CompatibleWith(cfg Config) error {
	mismatch := func(field string, capture, restore any) error {
		return fmt.Errorf("%w: %s was %+v at capture, %+v at restore",
			ErrIncompatibleSnapshot, field, capture, restore)
	}
	switch {
	case cfg.ICache != s.cfg.ICache:
		return mismatch("ICache", s.cfg.ICache, cfg.ICache)
	case cfg.DCache != s.cfg.DCache:
		return mismatch("DCache", s.cfg.DCache, cfg.DCache)
	case cfg.TCache != s.cfg.TCache:
		return mismatch("TCache", s.cfg.TCache, cfg.TCache)
	case effectiveBPredConfig(cfg) != effectiveBPredConfig(s.cfg):
		return mismatch("BPred", effectiveBPredConfig(s.cfg), effectiveBPredConfig(cfg))
	case effectiveTPredConfig(cfg) != effectiveTPredConfig(s.cfg):
		return mismatch("TPred", effectiveTPredConfig(s.cfg), effectiveTPredConfig(cfg))
	case effectiveBITConfig(cfg) != effectiveBITConfig(s.cfg):
		return mismatch("BIT", effectiveBITConfig(s.cfg), effectiveBITConfig(cfg))
	case cfg.MaxTraceLen != s.cfg.MaxTraceLen:
		return mismatch("MaxTraceLen", s.cfg.MaxTraceLen, cfg.MaxTraceLen)
	case cfg.Seed != s.cfg.Seed:
		return mismatch("Seed", s.cfg.Seed, cfg.Seed)
	case cfg.ValuePredict != s.cfg.ValuePredict:
		return mismatch("ValuePredict", s.cfg.ValuePredict, cfg.ValuePredict)
	case cfg.ValuePredict && cfg.VPred != s.cfg.VPred:
		return mismatch("VPred", s.cfg.VPred, cfg.VPred)
	}
	return nil
}

// NewFromSnapshot builds a processor that resumes from snap under the given
// model and configuration: architectural state (registers, memory, PC, the
// oracle when Config.Verify is set) and the warmed structures are copied
// out of the snapshot, everything else — window, ARB, trace-level
// sequencing — starts empty, exactly as it would at reset. The restored
// run's statistics cover the measured region only; Stats.WarmupInsts
// records the fast-forwarded prefix.
//
// The configuration must satisfy snap.CompatibleWith; violations are
// reported as errors wrapping ErrIncompatibleSnapshot. The configuration is
// otherwise validated like New's (the caller is expected to have run
// Config.Validate, as package tracep does).
func NewFromSnapshot(snap *Snapshot, model Model, cfg Config) (*Processor, error) {
	p := new(Processor)
	if err := p.Restore(snap, model, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// Restore re-initialises p in place into the processor
// NewFromSnapshot(snap, model, cfg) returns, reusing p's tables and arenas
// like Reset. On error p is left untouched.
func (p *Processor) Restore(snap *Snapshot, model Model, cfg Config) error {
	if snap == nil {
		return errors.New("snapshot: nil snapshot")
	}
	if err := snap.CompatibleWith(cfg); err != nil {
		return err
	}
	p.reset(snap.prog, model, cfg, snap)
	return nil
}
