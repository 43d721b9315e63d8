// Package proc implements the trace processor: a cycle-level,
// execution-driven timing model of the microarchitecture in Figure 2 of the
// paper, with the hierarchical instruction window (one trace per processing
// element), trace-level sequencing (next-trace predictor + trace cache +
// outstanding trace buffers), linked-list PE management, selective
// misspeculation recovery, and the paper's three recovery modes: full squash
// (base), fine-grain control independence (FGCI) and coarse-grain control
// independence (CGCI) with the RET / MLB-RET heuristics.
//
// The model is execution-driven: instruction values are really computed,
// including on wrong paths, and an architectural oracle (internal/emu)
// verifies every retired instruction when Config.Verify is set.
package proc

import (
	"context"
	"fmt"
	"slices"

	"tracep/internal/arb"
	"tracep/internal/bpred"
	"tracep/internal/cache"
	"tracep/internal/core"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/rename"
	"tracep/internal/tpred"
	"tracep/internal/trace"
	"tracep/internal/vpred"
)

// CGCIMode selects the coarse-grain control-independence heuristic (§4.2).
type CGCIMode int

const (
	// CGCINone disables coarse-grain CI: any non-FGCI misprediction squashes
	// all younger traces.
	CGCINone CGCIMode = iota
	// CGCIRET uses the RET heuristic: the trace after the nearest
	// return-ending trace is assumed control independent.
	CGCIRET
	// CGCIMLBRET uses MLB for mispredicted backward (loop) branches and RET
	// otherwise; requires ntb trace selection to expose loop exits.
	CGCIMLBRET
)

// Model selects the control-independence configuration of a run, combining
// a trace-selection policy with recovery mechanisms (§6).
type Model struct {
	Name string
	// NTB and FG are the trace selection constraints (§3.2, §4.1).
	NTB bool
	FG  bool
	// FGCI enables fine-grain recovery for FGCI-covered branches.
	FGCI bool
	// CGCI selects the coarse-grain heuristic.
	CGCI CGCIMode
}

// The paper's eight experimental models (Tables 3-4, Figures 9-10).
var (
	ModelBase      = Model{Name: "base"}
	ModelBaseNTB   = Model{Name: "base(ntb)", NTB: true}
	ModelBaseFG    = Model{Name: "base(fg)", FG: true}
	ModelBaseFGNTB = Model{Name: "base(fg,ntb)", FG: true, NTB: true}
	ModelRET       = Model{Name: "RET", CGCI: CGCIRET}
	ModelMLBRET    = Model{Name: "MLB-RET", NTB: true, CGCI: CGCIMLBRET}
	ModelFG        = Model{Name: "FG", FG: true, FGCI: true}
	ModelFGMLBRET  = Model{Name: "FG+MLB-RET", FG: true, NTB: true, FGCI: true, CGCI: CGCIMLBRET}
)

// Config holds the processor configuration (Table 1).
type Config struct {
	NumPEs        int // 16 PEs
	PEIssueWidth  int // 4-way issue per PE
	MaxTraceLen   int // 32 instructions
	GlobalBuses   int // 8 result buses
	MaxBusPerPE   int // up to 4 per PE
	CacheBuses    int // 8 cache buses
	MaxCachePerPE int // up to 4 per PE
	// BusLatency is the extra result bypass latency between PEs (1 cycle).
	BusLatency int

	ICache cache.ICacheConfig
	DCache cache.DCacheConfig
	TCache trace.CacheConfig
	BPred  bpred.Config
	TPred  tpred.Config
	BIT    core.BITConfig

	// ValuePredict enables the live-in value predictor of Figure 2
	// (off by default — the paper's evaluation does not parameterise it);
	// mispredicted values are repaired by the normal selective-reissue path.
	ValuePredict bool
	VPred        vpred.Config

	// Seed, when nonzero, scrambles initial predictor state with a
	// deterministic PRNG instead of the paper's canonical reset: the branch
	// predictor's direction counters and (sparsely) its BTB indirect
	// targets, and the next-trace predictor's replacement-hysteresis
	// counters. Per-predictor seeds (BPred.Seed, TPred.Seed) override this
	// run seed individually. Runs stay fully deterministic for a given
	// seed; sweeping seeds measures sensitivity to predictor cold-start (0
	// = canonical reset).
	Seed int64

	// Verify runs the architectural oracle against every retired
	// instruction.
	Verify bool
	// WatchdogCycles aborts the run if nothing retires for this many cycles
	// (a livelock/deadlock detector for the simulator itself).
	WatchdogCycles int64
}

// DefaultConfig returns Table 1's configuration.
func DefaultConfig() Config {
	return Config{
		NumPEs:         16,
		PEIssueWidth:   4,
		MaxTraceLen:    32,
		GlobalBuses:    8,
		MaxBusPerPE:    4,
		CacheBuses:     8,
		MaxCachePerPE:  4,
		BusLatency:     1,
		ICache:         cache.DefaultICacheConfig(),
		DCache:         cache.DefaultDCacheConfig(),
		TCache:         trace.DefaultCacheConfig(),
		BPred:          bpred.DefaultConfig(),
		TPred:          tpred.DefaultConfig(),
		BIT:            core.DefaultBITConfig(),
		VPred:          vpred.DefaultConfig(),
		Verify:         true,
		WatchdogCycles: 200000,
	}
}

// Processor is one simulation instance over a program.
type Processor struct {
	cfg   Config
	model Model
	prog  *isa.Program

	mem     isa.Memory // committed architectural memory
	oracle  *emu.Emulator
	commits CommitSource // recorded-trace oracle; replaces the emulator when set

	// regs is the global register file. specMap (the rename map at the
	// dispatch frontier) and archMap (the architectural map, which the head
	// PE's mapBefore equals) each hold a reference to every tag they name.
	regs    rename.File
	specMap rename.Map
	archMap rename.Map

	arbuf  arb.ARB
	dcache cache.DCache
	icache cache.ICache
	tcache trace.Cache
	bp     bpred.Predictor
	tp     tpred.Predictor
	bit    core.BIT
	vp     *vpred.Predictor // nil unless Config.ValuePredict
	ctor   trace.Constructor

	pes  []*peState
	free []int
	head int // oldest PE in the linked list (-1 when empty)
	tail int

	cycle int64
	// evBuckets is the event scheduler: a power-of-two ring of per-cycle
	// buckets indexed by cycle&evMask, with bucket storage reused across
	// cycles (see reset).
	evBuckets [][]event
	evMask    int64
	// subTab holds global-value subscriptions — operands bound to a tag that
	// must be notified when the tag's value arrives or changes — as a flat
	// table indexed by the tag's physical rename slot. See tables.go.
	subTab []subSlot
	// subArena is the slab new subscriber rows carve their initial list
	// capacity from, so first-touch subscriptions on fresh rename slots do
	// not allocate one tiny slice each. Lists outgrowing their carve move to
	// dedicated storage via ordinary append.
	subArena []subRef //tracep:keep carved rows stay valid across resets
	// loadRecs indexes performed loads by address for store/undo snooping
	// (open-addressed, see tables.go); the snoop iteration scratch is reused.
	loadRecs    loadTable
	loadScratch []*instState
	// bcastQueue holds pending global result-bus requests in request order;
	// busPerPE is the flat per-PE grant counter reset each arbitration.
	bcastQueue []instRef
	busPerPE   []int
	// wakeBatch collects the consumers touched by the cycle's event bucket;
	// deliverEvents drains it once per cycle, dispatching a single reissue
	// check per consumer instead of one per subscriber notification.
	wakeBatch []instRef

	// less is p.seqLess as a prebuilt func value: creating the method value
	// once at construction keeps the hot ARB calls free of per-call closures.
	less arb.LessFunc

	fe  frontend
	rec recovery
	// mispQueue holds resolved branches whose outcome disagrees with the
	// assumed outcome, awaiting recovery (oldest processed first).
	mispQueue []instRef

	// forcedScratch, ciYounger and ciViews are recovery-path scratch buffers.
	forcedScratch []bool
	ciYounger     []*peState
	ciViews       []core.TraceView

	// branchClasses is the static Table 5 classification, indexed by PC
	// (zero value for non-branch PCs, matching the old map's missing-key
	// semantics).
	branchClasses []branchClass

	Stats Stats

	lastRetire int64
	halted     bool
	done       bool
	err        error

	// debugLog, when non-nil, records recovery decisions for test
	// diagnostics.
	debugLog []string
}

func (p *Processor) debugf(format string, args ...interface{}) {
	if p.debugLog != nil {
		p.debugLog = append(p.debugLog, fmt.Sprintf("[%d] ", p.cycle)+fmt.Sprintf(format, args...))
	}
}

// effectiveBPredConfig is the branch-predictor configuration a run actually
// uses: the per-predictor seed falls back to the run seed. Snapshot capture
// and compatibility checks must agree with New on this.
func effectiveBPredConfig(cfg Config) bpred.Config {
	bpCfg := cfg.BPred
	if bpCfg.Seed == 0 {
		bpCfg.Seed = cfg.Seed
	}
	return bpCfg
}

// effectiveTPredConfig is the next-trace-predictor configuration a run
// actually uses: the per-predictor seed falls back to the run seed, so
// WithSeed-style sweeps perturb trace-level cold-start state alongside the
// branch predictor's. Snapshot capture and compatibility checks must agree
// with New on this.
func effectiveTPredConfig(cfg Config) tpred.Config {
	tpCfg := cfg.TPred
	if tpCfg.Seed == 0 {
		tpCfg.Seed = cfg.Seed
	}
	return tpCfg
}

// effectiveBITConfig is the BIT configuration a run actually uses: the FGCI
// scan bound follows the maximum trace length.
func effectiveBITConfig(cfg Config) core.BITConfig {
	bitCfg := cfg.BIT
	bitCfg.Analyze.MaxSize = cfg.MaxTraceLen
	return bitCfg
}

// New builds a processor for prog under the given model and configuration,
// starting from architectural reset with cold microarchitectural state.
func New(prog *isa.Program, model Model, cfg Config) *Processor {
	p := new(Processor)
	p.reset(prog, model, cfg, nil)
	return p
}

// Reset re-initialises p in place into the processor New(prog, model, cfg)
// returns, abandoning any run in progress. Tables, caches and arenas whose
// shape still fits cfg are reused instead of allocated, so a sweep worker
// can run cell after cell on one engine.
func (p *Processor) Reset(prog *isa.Program, model Model, cfg Config) {
	p.reset(prog, model, cfg, nil)
}

// Detach drops p's references to its program, oracle and commit source,
// keeping its tables and arenas for the next Reset or Restore, so an idle
// pooled engine pins nothing of the run it finished. A detached processor
// must be reset before it runs again.
func (p *Processor) Detach() {
	p.prog, p.oracle, p.commits = nil, nil, nil
	p.ctor.Prog = nil
	p.bit.Reset(nil, effectiveBITConfig(p.cfg))
}

// reset is the one construction path: it re-initialises p — a zero
// Processor or a used one — as a processor for prog under model and cfg.
// With a nil snapshot every structure starts from reset; with a snapshot,
// architectural state and the warm-up-visible structures are copied out of
// it (see NewFromSnapshot). Every backing array whose shape still fits cfg
// is reused. Every field is mentioned here or marked //tracep:keep
// (tracepvet's resetcomplete), so a field added without reset handling
// fails vet.
func (p *Processor) reset(prog *isa.Program, model Model, cfg Config, snap *Snapshot) {
	p.cfg, p.model, p.prog = cfg, model, prog
	p.commits = nil
	p.debugLog = nil
	if p.less == nil {
		p.less = p.seqLess
	}
	// The trace cache's resident traces go back to the constructor's pool
	// for the next build (traces a PE or fetch entry still holds are simply
	// dropped), and structures no snapshot carries start from reset.
	p.tcache.Reset(cfg.TCache, p.releaseTrace)
	p.tp.Reset(effectiveTPredConfig(cfg))
	// Checkpoints into the next-trace predictor's history ring reach back at
	// most one window plus one fetch queue of in-flight traces; size the ring
	// generously for deep-window configurations.
	p.tp.EnsureHistoryCapacity(4 * cfg.NumPEs)
	p.arbuf.Reset()
	if cfg.ValuePredict {
		if p.vp == nil {
			p.vp = new(vpred.Predictor)
		}
		p.vp.Reset(cfg.VPred)
	} else {
		p.vp = nil
	}
	if cfg.Verify {
		if p.oracle == nil {
			p.oracle = new(emu.Emulator)
		}
	} else {
		p.oracle = nil
	}
	p.Stats = Stats{}
	startPC := prog.Entry
	if snap == nil {
		p.mem.Reset(prog)
		p.regs.Reset()
		p.dcache.Reset(cfg.DCache)
		p.icache.Reset(cfg.ICache)
		p.bp.Reset(effectiveBPredConfig(cfg))
		p.bit.Reset(prog, effectiveBITConfig(cfg))
		if p.oracle != nil {
			p.oracle.Reset(prog)
		}
		p.specMap = rename.InitialMap(&p.regs)
	} else {
		// Every structure is copied, never aliased: many simulations may be
		// forked from one snapshot, concurrently.
		p.mem.CopyFrom(snap.emu.Mem)
		p.regs.CopyFrom(snap.regs)
		p.dcache.CopyFrom(snap.dcache)
		p.icache.CopyFrom(snap.icache)
		p.bp.CopyFrom(snap.bp)
		p.bit.CopyFrom(snap.bit)
		if p.oracle != nil {
			p.oracle.CopyFrom(snap.emu)
		}
		p.specMap = snap.rmap
		p.Stats.WarmupInsts = snap.warmupInsts
		startPC = snap.emu.PC
	}
	// With the window empty, the seeded map is also the architectural map.
	// The old map's tags named the previous register file: drop them
	// without release.
	p.archMap = rename.Map{}
	p.regs.SetMap(&p.archMap, &p.specMap)
	p.ctor.Prog = prog
	p.ctor.Sel = trace.SelConfig{MaxLen: cfg.MaxTraceLen, NTB: model.NTB, FG: model.FG}
	p.ctor.BIT, p.ctor.BP, p.ctor.IC = &p.bit, &p.bp, &p.icache

	p.pes = slices.Grow(p.pes[:0], cfg.NumPEs)[:cfg.NumPEs]
	p.free = slices.Grow(p.free[:0], cfg.NumPEs)
	for i, pe := range p.pes {
		if pe == nil {
			pe = new(peState)
			p.pes[i] = pe
		}
		pe.reset(i, cfg.MaxTraceLen)
		p.free = append(p.free, i)
	}
	p.head, p.tail = -1, -1
	p.fe.reset(cfg.NumPEs, startPC)
	p.rec = recovery{redispatch: p.rec.redispatch[:0], redispatchGens: p.rec.redispatchGens[:0]}

	p.cycle = 0
	// The event ring starts past the largest modelled latency it must hold
	// at once (cache miss penalties, the divide unit, the bus latency) and
	// grows on demand; bucket storage is reused cycle after cycle and run
	// after run, so steady-state scheduling never touches the heap. A ring
	// left larger by an earlier run behaves the same: events for one cycle
	// always share one bucket.
	ring := 64
	for ring <= cfg.BusLatency+1 {
		ring *= 2
	}
	if len(p.evBuckets) < ring {
		p.evBuckets = make([][]event, ring)
	}
	for i := range p.evBuckets {
		p.evBuckets[i] = p.evBuckets[i][:0]
	}
	p.evMask = int64(len(p.evBuckets) - 1)
	for i := range p.subTab {
		p.subTab[i] = subSlot{list: p.subTab[i].list[:0]}
	}
	p.loadRecs.reset()
	p.loadScratch = p.loadScratch[:0]
	p.bcastQueue = p.bcastQueue[:0]
	p.busPerPE = slices.Grow(p.busPerPE[:0], cfg.NumPEs)[:cfg.NumPEs]
	clear(p.busPerPE)
	p.wakeBatch = p.wakeBatch[:0]
	p.mispQueue = p.mispQueue[:0]
	p.forcedScratch = p.forcedScratch[:0]
	p.ciYounger = p.ciYounger[:0]
	p.ciViews = p.ciViews[:0]
	p.branchClasses = p.classifyBranches(p.branchClasses)

	p.lastRetire = 0
	p.halted, p.done, p.err = false, false, nil
}

// instRef is a gen-stamped reference to a pooled instruction slot: gen
// guards against the slot having been reused (reinitialised for another
// dynamic instruction) since the reference was recorded. It is the entry
// type of the load-record index, the result-bus request queue and the
// misprediction queue.
type instRef struct {
	st  *instState
	gen uint64
}

// Err returns the first simulator-internal error (oracle mismatch, watchdog,
// invariant violation), or nil.
func (p *Processor) Err() error { return p.err }

// Halted reports whether the program's halt instruction has retired.
func (p *Processor) Halted() bool { return p.halted }

// Cycle returns the current cycle number.
func (p *Processor) Cycle() int64 { return p.cycle }

// Run simulates until the program halts, maxInsts instructions have retired,
// or an error occurs. It returns the collected statistics.
func (p *Processor) Run(maxInsts uint64) (*Stats, error) {
	return p.RunContext(context.Background(), maxInsts, 0, nil)
}

// Progress is a snapshot of a running simulation, delivered to the progress
// tap registered with RunContext.
type Progress struct {
	Cycle         int64
	RetiredInsts  uint64
	RetiredTraces uint64
}

// ctxCheckInterval is how many cycles elapse between context polls: cheap
// enough to be invisible on the hot path, frequent enough that cancellation
// lands within microseconds of simulated work.
const ctxCheckInterval = 1024

// RunContext simulates like Run but stops early when ctx is cancelled,
// returning the statistics gathered so far together with the context's
// error. The returned statistics are a copy: they do not move if the
// processor is stepped further, and holding them does not keep the
// processor alive. When tap is non-nil it is called (synchronously, on the
// simulation goroutine) each time another `every` instructions have
// retired; every <= 0 disables the tap.
func (p *Processor) RunContext(ctx context.Context, maxInsts uint64, every uint64, tap func(Progress)) (*Stats, error) {
	var ctxErr error
	var nextTap uint64
	if every > 0 && tap != nil {
		nextTap = every
	}
	for !p.done && p.err == nil {
		p.Step()
		if nextTap > 0 && p.Stats.RetiredInsts >= nextTap {
			tap(Progress{Cycle: p.cycle, RetiredInsts: p.Stats.RetiredInsts, RetiredTraces: p.Stats.RetiredTraces})
			for nextTap <= p.Stats.RetiredInsts {
				nextTap += every
			}
		}
		if maxInsts > 0 && p.Stats.RetiredInsts >= maxInsts {
			break
		}
		if p.cycle%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
		}
	}
	p.Stats.Cycles = uint64(p.cycle)
	p.finalizeStats()
	stats := p.Stats
	if p.err != nil {
		return &stats, p.err
	}
	return &stats, ctxErr
}

// Step advances the processor one cycle.
//
//tracep:noalloc
func (p *Processor) Step() {
	p.cycle++
	p.deliverEvents()
	p.processMispredictions()
	p.issueAll()
	p.grantResultBuses()
	p.frontendStep()
	p.retireStep()
	if p.cfg.WatchdogCycles > 0 && p.cycle-p.lastRetire > p.cfg.WatchdogCycles {
		//tracep:allow watchdog trip is terminal: the run is abandoned, so the error construction is off the measured path
		p.fail(fmt.Errorf("watchdog: no retirement for %d cycles at cycle %d (head=%d recovery=%v)",
			p.cfg.WatchdogCycles, p.cycle, p.head, p.rec.active))
	}
}

//tracep:noalloc
func (p *Processor) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.done = true
}

// branchClass statically classifies a conditional branch per Table 5.
type branchClass struct {
	kind       branchKind
	dynSize    int
	staticSize int
	numCondBr  int
}

type branchKind uint8

const (
	classFGCISmall branchKind = iota // embeddable region fits in a trace
	classFGCIBig                     // region found but larger than a trace
	classOtherForward
	classBackward
)

// classifyBranches statically analyses every conditional branch in the
// program with a large-bound FGCI analysis, for Table 5 accounting. The
// table is built in buf's storage when it fits.
func (p *Processor) classifyBranches(buf []branchClass) []branchClass {
	classes := slices.Grow(buf[:0], p.prog.Len())[:p.prog.Len()]
	clear(classes)
	acfg := core.AnalyzeConfig{MaxSize: 4 * p.cfg.MaxTraceLen, MaxEdges: 8, MaxScan: 2048}
	for pc := uint32(0); int(pc) < p.prog.Len(); pc++ {
		in := p.prog.At(pc)
		if !in.IsCondBranch() {
			continue
		}
		if in.IsBackwardBranch(pc) {
			classes[pc] = branchClass{kind: classBackward}
			continue
		}
		reg := core.AnalyzeRegion(p.prog, pc, acfg)
		switch {
		case reg.Found && reg.Size <= p.cfg.MaxTraceLen:
			classes[pc] = branchClass{
				kind: classFGCISmall, dynSize: reg.Size,
				staticSize: reg.StaticSize, numCondBr: reg.NumCondBr,
			}
		case reg.Found:
			classes[pc] = branchClass{
				kind: classFGCIBig, dynSize: reg.Size,
				staticSize: reg.StaticSize, numCondBr: reg.NumCondBr,
			}
		default:
			classes[pc] = branchClass{kind: classOtherForward}
		}
	}
	return classes
}
