package trace

import (
	"context"
	"fmt"
	"math"

	"ctrlguard/internal/classify"
	"ctrlguard/internal/cpu"
	"ctrlguard/internal/workload"
)

// Capture runs one experiment in forensic detail mode: the reference
// execution and the faulty execution are both traced instruction by
// instruction, and the result is reduced to per-iteration snapshots
// from the injection iteration to the end of the run. Capture is
// deterministic: the same (variant, spec, injection) always yields an
// identical Trace, so a campaign record can be replayed after the fact
// from nothing but its seed and ID (see goofi.TraceExperiment).
// spec.Monitor, if set, is a fresh stack of the campaign's detectors:
// the faulty pass runs it after its collector, the reference pass not.
//
// A detail-mode run is orders of magnitude slower than a campaign
// experiment; ctx cancellation is honoured at iteration boundaries.
// ccfg's zero value means the paper's classification thresholds.
func Capture(ctx context.Context, variant workload.Variant, spec workload.RunSpec, inj workload.Injection, ccfg classify.Config) (*Trace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Iterations == 0 {
		spec = workload.SpecFor(variant)
	}
	if ccfg == (classify.Config{}) {
		ccfg = classify.DefaultConfig()
	}
	prog := workload.Program(variant)
	abort := func() bool { return ctx.Err() != nil }

	goldenCol := newCollector(prog)
	goldenSpec := spec
	goldenSpec.Injection = nil
	goldenSpec.Monitor = workload.Observed{Observe: goldenCol.observe}
	goldenSpec.Abort = abort
	golden := workload.Run(prog, goldenSpec)
	if golden.Aborted {
		return nil, fmt.Errorf("trace: capture cancelled: %w", ctx.Err())
	}
	if golden.Detected() {
		return nil, fmt.Errorf("trace: reference execution trapped: %v", golden.Trap)
	}
	goldenCol.flush()

	faultyCol := newCollector(prog)
	faultyCol.ref = goldenCol
	faultyCol.injectAt, faultyCol.hasInject = inj.At, true
	faultySpec := spec
	faultySpec.Injection = &inj
	faultySpec.Monitor = workload.Observed{Observe: faultyCol.observe, Next: spec.Monitor}
	faultySpec.Abort = abort
	faulty := workload.Run(prog, faultySpec)
	if faulty.Aborted {
		return nil, fmt.Errorf("trace: capture cancelled: %w", ctx.Err())
	}
	faultyCol.flush()

	var verdict classify.Verdict
	if faulty.Detected() {
		verdict = classify.DetectedVerdict(string(faulty.Trap.Mech))
	} else {
		verdict = classify.RunMulti(golden.MultiOutputs, faulty.MultiOutputs,
			!cpu.StatesEqual(golden.FinalState, faulty.FinalState), ccfg)
	}

	injIter := 0
	for k, start := range golden.IterationStarts {
		if inj.At >= start {
			injIter = k
		}
	}

	h := Header{
		Variant:    string(variant),
		Experiment: -1,
		Injection: Injection{
			Region:  string(inj.Bit.Region),
			Element: inj.Bit.Element,
			Bit:     inj.Bit.Bit,
			At:      inj.At,
			Model:   string(inj.Model),
			Width:   inj.Width,
		},
		InjectionIteration:  injIter,
		Iterations:          spec.Iterations,
		Outcome:             verdict.Outcome.String(),
		Mechanism:           verdict.Mechanism,
		FirstArchDivergence: faultyCol.firstArchDiv,
		TrapIteration:       -1,
		HasState:            faultyCol.hasState,
		HasBackup:           faultyCol.hasBackup,
	}
	if faulty.Detected() {
		h.TrapIteration = faulty.TrapIteration
	}

	t := &Trace{Header: h}
	lastK := len(faultyCol.xEnd) - 1
	for k := injIter; k <= lastK; k++ {
		it := Iteration{
			K:              k,
			X:              math.Float64frombits(faultyCol.xEnd[k]),
			XGolden:        math.Float64frombits(goldenCol.xEnd[k]),
			Backup:         math.Float64frombits(faultyCol.backupEnd[k]),
			RegsTouched:    faultyCol.regsTouched[k],
			CacheTouched:   faultyCol.cacheTouched[k],
			RegDivergent:   faultyCol.regDiv[k],
			CacheDivergent: faultyCol.cacheDiv[k],
			Events:         faultyCol.events[k],
		}
		if k < len(faulty.Outputs) && k < len(golden.Outputs) {
			it.Output, it.GoldenOutput = faulty.Outputs[k], golden.Outputs[k]
		} else {
			// The run trapped during this iteration: no output was
			// delivered.
			it.Events |= EventTrapped
		}
		t.Iterations = append(t.Iterations, it)
	}
	return t, nil
}

// collector accumulates the per-instruction observations of one traced
// run into per-iteration records. A collector without ref is a
// reference pass recording state signatures; with ref set it is the
// faulty pass, comparing against those signatures on the fly.
type collector struct {
	xAddr, xoldAddr     uint32
	hasState, hasBackup bool
	recLabels           map[uint32]uint8
	injectAt            uint64
	hasInject           bool

	ref *collector

	// Per-instruction state signatures (reference pass only).
	regHash, cacheHash []uint64

	// Running state.
	started            bool
	lastK              int
	instrIndex         int
	prevRegs           [16]uint32
	prevCache          []uint32
	curCache           []uint32
	curX, curBackup    uint64
	firstArchDiv       int64
	accRegs, accCache  uint32
	accRegD, accCacheD uint32
	accEvents          uint8

	// Per-iteration results, indexed by iteration.
	xEnd, backupEnd           []uint64
	regsTouched, cacheTouched []uint32
	regDiv, cacheDiv          []uint32
	events                    []uint8
}

// stateLabels and backupLabels name the data words tracked as "the
// controller state" and "its recovery backup" across the workload
// variants (the SISO variants use x/xold, the MIMO variants x1/x1old;
// for MIMO the first shaft's integrator stands for the state).
var (
	stateLabels  = []string{"x", "x1"}
	backupLabels = []string{"xold", "x1old"}
)

// recoveryLabels maps the code labels of the assertion-failure blocks
// to the event they signify. The fail-stop variants use dead/dead2 for
// the same two assertions.
var recoveryLabels = map[string]uint8{
	"recx":  EventStateAssertFailed,
	"dead":  EventStateAssertFailed,
	"recu":  EventOutputAssertFailed,
	"dead2": EventOutputAssertFailed,
}

func newCollector(prog *cpu.Program) *collector {
	c := &collector{
		lastK:        -1,
		firstArchDiv: -1,
		recLabels:    make(map[uint32]uint8),
		prevCache:    make([]uint32, 0, cpu.CacheTotalWords),
		curCache:     make([]uint32, 0, cpu.CacheTotalWords),
	}
	for _, l := range stateLabels {
		if a, ok := prog.DataAddr(l); ok {
			c.xAddr, c.hasState = a, true
			break
		}
	}
	for _, l := range backupLabels {
		if a, ok := prog.DataAddr(l); ok {
			c.xoldAddr, c.hasBackup = a, true
			break
		}
	}
	for name, bit := range recoveryLabels {
		if a, ok := prog.CodeLabels[name]; ok {
			c.recLabels[a] = bit
		}
	}
	return c
}

// observe is the run's per-instruction hook (workload.Observed), called
// with the machine state the previous instruction left behind. State
// deltas are therefore attributed to the iteration that executed the
// writing instruction, and the snapshot flushed at an iteration
// boundary is the end-of-iteration state.
func (c *collector) observe(k int, instr uint64, vm *cpu.CPU) {
	if !c.started {
		c.started = true
		c.lastK = k
		c.prevRegs = vm.Regs
		c.prevCache = vm.Cache.SnapshotWords(c.prevCache)
	} else {
		for r := 1; r < 16; r++ {
			if vm.Regs[r] != c.prevRegs[r] {
				c.accRegs |= 1 << uint(r)
			}
		}
		c.prevRegs = vm.Regs
		c.curCache = vm.Cache.SnapshotWords(c.curCache)
		for i, w := range c.curCache {
			if w != c.prevCache[i] {
				c.accCache |= 1 << uint(i)
			}
		}
		c.prevCache, c.curCache = c.curCache, c.prevCache
	}

	if c.ref != nil {
		i := c.instrIndex
		regDiff := i < len(c.ref.regHash) && vm.RegisterHash() != c.ref.regHash[i]
		cacheDiff := i < len(c.ref.cacheHash) && vm.CacheHash() != c.ref.cacheHash[i]
		if regDiff {
			c.accRegD++
		}
		if cacheDiff {
			c.accCacheD++
		}
		if (regDiff || cacheDiff) && c.firstArchDiv < 0 {
			c.firstArchDiv = int64(instr)
		}
	} else {
		c.regHash = append(c.regHash, vm.RegisterHash())
		c.cacheHash = append(c.cacheHash, vm.CacheHash())
	}
	c.instrIndex++

	if c.hasState {
		c.curX = vm.PeekDoubleBits(c.xAddr)
	}
	if c.hasBackup {
		c.curBackup = vm.PeekDoubleBits(c.xoldAddr)
	}

	if k != c.lastK {
		c.flush()
		c.lastK = k
	}

	// Events observed at this PC belong to the iteration about to
	// execute (recovery-block entries, the injection itself).
	if bit, ok := c.recLabels[vm.PC]; ok {
		c.accEvents |= bit
	}
	if c.hasInject && instr == c.injectAt {
		c.accEvents |= EventInjected
	}
}

// flush closes the current iteration's accumulators into the
// per-iteration arrays. Capture calls it once more after the run ends
// to record the final (or trapped) iteration.
func (c *collector) flush() {
	if !c.started {
		return
	}
	c.xEnd = append(c.xEnd, c.curX)
	c.backupEnd = append(c.backupEnd, c.curBackup)
	c.regsTouched = append(c.regsTouched, c.accRegs)
	c.cacheTouched = append(c.cacheTouched, c.accCache)
	c.regDiv = append(c.regDiv, c.accRegD)
	c.cacheDiv = append(c.cacheDiv, c.accCacheD)
	c.events = append(c.events, c.accEvents)
	c.accRegs, c.accCache, c.accRegD, c.accCacheD, c.accEvents = 0, 0, 0, 0, 0
}
