package workload

import (
	"math"

	"ctrlguard/internal/cpu"
	"ctrlguard/internal/plant"
)

// DefaultCycleBudget is the per-iteration instruction limit enforced by
// the host. A healthy iteration (idle polling included) takes a few
// hundred instructions; a run that exceeds the budget is terminated by
// the watchdog, like a bus time-out would terminate a wedged Thor.
const DefaultCycleBudget = 20000

// DefaultIdleSpins is how many times the workload's wait loop polls the
// ready flag before the next sample period begins. It models the duty
// cycle of the real target, which computes for microseconds and then
// idles until the next 15.4 ms data exchange. The idle share determines
// how exposed the registers are: faults hitting registers while the CPU
// idles are overwritten by the reloads at the top of the next
// iteration, whereas the cached state variable stays live throughout —
// the effect behind the paper's cache-dominated value failures. Polls
// are injection-time samples like any other instruction, but the
// predecoded engine executes runs of them in O(1) (cpu.CPU.FastForward).
const DefaultIdleSpins = 100

// Injection describes one SCIFI-style fault: perturb Bit just before
// the instruction with global index At begins execution, per Model.
// The zero Model is the paper's permanent single bit-flip; Width is
// the burst span for ModelBurst (0 = DefaultBurstWidth) and ignored
// otherwise.
type Injection struct {
	At    uint64
	Bit   cpu.StateBit
	Model FaultModel `json:",omitempty"`
	Width int        `json:",omitempty"`
}

// Monitor is an in-loop error detector: OnInstr runs before every
// instruction the run steps (after any injection for that cycle is
// applied) and OnIteration after each control iteration's outputs are
// delivered. A non-nil trap terminates the run exactly like a CPU EDM
// firing — detectors report through the same trap plumbing the
// campaigns already classify. A monitor keeps the Golden splice and
// Cursor forks only when it is a StatefulMonitor, and the idle
// fast-forward only when it is an IdleMonitor; any other disables them,
// since they skip instructions the detector would need to see. A
// monitor that never traps is a valid passive recorder: the pruner's
// def-use capture records a golden run this way, as an IdleMonitor.
type Monitor interface {
	OnInstr(iteration int, instr uint64, vm *cpu.CPU) *cpu.TrapError
	OnIteration(iteration int, vm *cpu.CPU) *cpu.TrapError
}

// StatefulMonitor is the optional Monitor capability behind the fast
// paths of monitored runs. A lane forked off a Cursor restores the
// cursor's monitor state into its own fresh monitor; a golden run
// recorded under it keeps its state at every iteration boundary, so
// re-convergence can require the monitor to match too.
type StatefulMonitor interface {
	Monitor

	// MonitorState encodes the monitor's state between two
	// instructions: two monitors of one configuration in equal states
	// trap identically on identical futures. ok is false when the
	// monitor cannot report its state (a stack with a member lacking
	// the capability); runs under it then take no fast path.
	MonitorState() (s string, ok bool)

	// RestoreMonitorState puts a fresh monitor into state s, reported
	// by a monitor of the same configuration (the same detectors over
	// the same program). The harness cannot check that precondition.
	RestoreMonitorState(s string)
}

// IdleMonitor is the optional Monitor capability behind the idle
// fast-forward (cpu.CPU.FastForward) of monitored runs. At the head of
// a poll loop reached by a taken jump the harness asks CanSkipPoll
// before OnInstr; when it accepts and the machine runs whole trips of
// the loop at once, SkipPoll stands in for their OnInstr calls.
type IdleMonitor interface {
	Monitor

	// CanSkipPoll reports whether every further trip of the poll loop
	// headed at pc would pass OnInstr without a trap and leave the
	// monitor as SkipPoll does.
	CanSkipPoll(pc uint32) bool

	// SkipPoll accounts for trips whole trips of the loop executed
	// without OnInstr calls, after CanSkipPoll accepted.
	SkipPoll(trips uint64)
}

// Observed runs Observe, a passive per-instruction hook such as a
// detail-mode trace's collector, as a monitor ahead of Next (nil for
// none). It has neither optional capability, so it sees every
// instruction.
type Observed struct {
	Observe func(iteration int, instr uint64, vm *cpu.CPU)
	Next    Monitor
}

// OnInstr implements Monitor.
func (o Observed) OnInstr(iteration int, instr uint64, vm *cpu.CPU) *cpu.TrapError {
	if o.Observe(iteration, instr, vm); o.Next == nil {
		return nil
	}
	return o.Next.OnInstr(iteration, instr, vm)
}

// OnIteration implements Monitor.
func (o Observed) OnIteration(iteration int, vm *cpu.CPU) *cpu.TrapError {
	if o.Next == nil {
		return nil
	}
	return o.Next.OnIteration(iteration, vm)
}

// Hook returns the run's one per-instruction hook, which the harness
// runs in place of Observer and Monitor.
func (s RunSpec) Hook() Monitor {
	if s.Observer == nil {
		return s.Monitor
	}
	return Observed{s.Observer, s.Monitor}
}

// statefulMonitor returns m's StatefulMonitor capability, or nil when m
// is nil, lacks it, or cannot report its state.
func statefulMonitor(m Monitor) StatefulMonitor {
	sm, ok := m.(StatefulMonitor)
	if !ok {
		return nil
	}
	if _, ok := sm.MonitorState(); !ok {
		return nil
	}
	return sm
}

// RunSpec configures one execution of a workload program against its
// environment simulator.
type RunSpec struct {
	Iterations  int
	CycleBudget int // per-iteration instruction limit (0 = default)

	// EngineCfg and Reference configure the default (engine)
	// environment; they are ignored when NewEnv is set.
	EngineCfg plant.EngineConfig
	Reference plant.ReferenceProfile

	// Ports describes the I/O window; the zero value means the engine
	// workload's layout (2 inputs, 1 output).
	Ports PortLayout

	// NewEnv constructs the environment simulator for one run. nil
	// means the paper's engine environment. A fresh environment is
	// created per run, so the factory must be safe for concurrent
	// use.
	NewEnv func(RunSpec) Environment

	Injection *Injection // nil for the reference (golden) run

	// Observer, if non-nil, is invoked before every instruction with
	// the current iteration, the global instruction index and the
	// machine, as a monitor ahead of Monitor (see Hook). It is kept for
	// the benchmark module (bench/probe.go).
	Observer func(iteration int, instr uint64, vm *cpu.CPU)

	// Monitor, if non-nil, is the in-loop detector or passive recorder
	// for this run. It sees every instruction the run steps: a monitored
	// run steps every instruction it does not fast-forward, where an
	// unmonitored one executes the stretches between the events it must
	// see in one cpu.CPU.Run call each. A StatefulMonitor keeps the
	// Golden splice and Cursor forks, and an IdleMonitor the idle
	// fast-forward, where it accounts for the poll-loop trips the
	// machine runs at once; any other monitor disables them.
	Monitor Monitor

	// Abort, if non-nil, is polled at every iteration boundary; when it
	// returns true the run stops before the next iteration and the
	// Outcome is returned with Aborted set. A single wedged iteration is
	// already bounded by the cycle-budget watchdog, so an Abort over a
	// wall-clock deadline bounds the whole run: the campaign engine's
	// worker fault isolation abandons hung experiments that way, and
	// detail-mode traces, far slower than ordinary runs, are cancelled
	// through it.
	Abort func() bool

	// Golden, if non-nil, is the fault-free outcome of the same spec,
	// recorded with RecordStateHashes. After the injection the run
	// then watches for re-convergence: once the machine state digest
	// matches the golden run at an iteration boundary and every output
	// so far is bit-identical, the remainder must equal the golden
	// remainder and is spliced in instead of re-executed. A monitored
	// run also needs its StatefulMonitor in the golden run's monitor
	// state at that boundary, so Golden must then be recorded under a
	// monitor of the same configuration (Outcome.MonitorStates); the
	// golden run trapped nothing, so the spliced remainder is clean.
	// This never changes the outcome — only how much of it is
	// recomputed.
	Golden *Outcome

	// RecordStateHashes captures the 128-bit machine-state digest at
	// every iteration boundary into Outcome.StateHashes, and a
	// StatefulMonitor's state into Outcome.MonitorStates, making the
	// outcome usable as a Golden reference. It costs one digest
	// (cpu.CPU.StateDigest) per iteration.
	RecordStateHashes bool

	// Interpret forces the classic fetch/decode interpreter instead of
	// the predecoded instruction stream, and so also turns off the idle
	// fast-forward (cpu.CPU.FastForward), which needs the stream: the
	// interpreter executes every poll of the ready flag. Behaviour is
	// identical either way (pinned by tests and the lockstep-crossval CI
	// job); the knob is the reference both fast paths are checked
	// against, and benchmarks the decode overhead.
	Interpret bool
}

// PaperRunSpec returns the paper's experiment parameters: 650 control
// iterations of the engine workload.
func PaperRunSpec() RunSpec {
	return RunSpec{
		Iterations: plant.DefaultIterations,
		EngineCfg:  plant.DefaultEngineConfig(),
		Reference:  plant.PaperReference(),
	}
}

// Outcome is the observable result of one run.
type Outcome struct {
	// Outputs holds the first output port's value for every completed
	// iteration (u_lim for the engine workload).
	Outputs []float64

	// MultiOutputs holds every output port's trace: MultiOutputs[j][k]
	// is port j at iteration k. Outputs aliases MultiOutputs[0].
	MultiOutputs [][]float64

	// Speeds holds the engine speed after each completed iteration
	// (engine environment only; empty for other environments).
	Speeds []float64

	// Trap is non-nil when an error-detection mechanism terminated
	// the run; TrapIteration is the iteration during which it fired.
	Trap          *cpu.TrapError
	TrapIteration int

	// FinalState is the end-of-run architectural state snapshot,
	// valid only when Trap is nil.
	FinalState []uint32

	// Instructions is the total number of instructions executed.
	Instructions uint64

	// IterationStarts records the instruction count at the beginning
	// of each iteration, letting callers target an injection at a
	// precise point of a chosen control iteration.
	IterationStarts []uint64

	// Aborted reports that RunSpec.Abort stopped the run early; the
	// outcome then covers only the completed iterations.
	Aborted bool

	// StateHashes holds the machine-state digest at the start of each
	// iteration; populated only when RunSpec.RecordStateHashes is set.
	StateHashes []cpu.Digest

	// MonitorStates holds the run's monitor state at the start of each
	// iteration; populated only when RunSpec.RecordStateHashes is set
	// and the Monitor is a StatefulMonitor.
	MonitorStates []string

	// ReconvergedAt is the iteration at which the run was found
	// bit-identical to RunSpec.Golden and its remainder spliced in, or
	// 0 when the run executed to its end (re-convergence is never
	// checked before iteration 1).
	ReconvergedAt int
}

// Detected reports whether the run was terminated by an EDM.
func (o *Outcome) Detected() bool {
	return o.Trap != nil
}

// ioPort implements cpu.IOBus for a PortLayout: input doubles, output
// doubles, the sync word and the ready flag. The ready flag reads 0 for
// the first idleSpins polls of each sample period, keeping the CPU in
// its wait loop like the real target idling between data exchanges.
type ioPort struct {
	ports      PortLayout
	in         []float64
	outHi      []uint32
	outLo      []uint32
	out        []float64 // outputs' buffer, reused every iteration
	syncSeen   bool
	readyPolls int
	idleSpins  int
}

var _ cpu.PollBus = (*ioPort)(nil)

func newIOPort(ports PortLayout, idleSpins int) *ioPort {
	return &ioPort{
		ports:     ports,
		in:        make([]float64, ports.Inputs),
		outHi:     make([]uint32, ports.Outputs),
		outLo:     make([]uint32, ports.Outputs),
		out:       make([]float64, ports.Outputs),
		idleSpins: idleSpins,
	}
}

func (p *ioPort) ReadIO(off uint32) uint32 {
	switch {
	case off == p.ports.ReadyOffset():
		p.readyPolls++
		if p.readyPolls > p.idleSpins {
			return 1
		}
		return 0
	case off == p.ports.SyncOffset():
		return 0
	}
	idx := int(off / 8)
	hi := off%8 == 0
	switch {
	case idx < p.ports.Inputs:
		bits := math.Float64bits(p.in[idx])
		if hi {
			return uint32(bits >> 32)
		}
		return uint32(bits)
	case idx < p.ports.Inputs+p.ports.Outputs:
		j := idx - p.ports.Inputs
		if hi {
			return p.outHi[j]
		}
		return p.outLo[j]
	default:
		return 0
	}
}

// ReadZeros implements cpu.PollBus. The ready flag has zeros left until
// its poll count reaches idleSpins; every other word reads back without
// side effects, so while it holds 0 any number of reads return 0.
func (p *ioPort) ReadZeros(off uint32, limit uint64) uint64 {
	if off == p.ports.ReadyOffset() {
		if p.readyPolls >= p.idleSpins {
			return 0
		}
		n := min(uint64(p.idleSpins-p.readyPolls), limit)
		p.readyPolls += int(n)
		return n
	}
	if p.ReadIO(off) != 0 {
		return 0
	}
	return limit
}

func (p *ioPort) WriteIO(off uint32, v uint32) {
	if off == p.ports.SyncOffset() {
		p.syncSeen = true
		return
	}
	idx := int(off / 8)
	j := idx - p.ports.Inputs
	if j < 0 || j >= p.ports.Outputs {
		return
	}
	if off%8 == 0 {
		p.outHi[j] = v
	} else {
		p.outLo[j] = v
	}
}

// outputs returns the delivered output values; valid once the sync
// store has been observed, and until the next call, which reuses the
// slice.
func (p *ioPort) outputs() []float64 {
	for j := range p.out {
		p.out[j] = math.Float64frombits(uint64(p.outHi[j])<<32 | uint64(p.outLo[j]))
	}
	return p.out
}

// Run executes prog against its environment for spec.Iterations control
// iterations, optionally injecting one bit-flip, and returns the
// observable outcome. Runs are fully deterministic: the Golden splice
// never changes the outcome, only how much of it is re-executed.
func Run(prog *cpu.Program, spec RunSpec) *Outcome {
	return newRunner(prog, spec).run()
}

// goldenUsable reports whether golden can serve as the re-convergence
// reference for a run of spec: a complete fault-free outcome of the
// same shape, with a digest recorded at every iteration boundary.
func goldenUsable(golden *Outcome, spec RunSpec, ports PortLayout) bool {
	if golden == nil || golden.Trap != nil || golden.Aborted {
		return false
	}
	if len(golden.StateHashes) != spec.Iterations ||
		len(golden.IterationStarts) != spec.Iterations ||
		len(golden.MultiOutputs) != ports.Outputs ||
		spec.Monitor != nil && len(golden.MonitorStates) != spec.Iterations {
		return false
	}
	for _, trace := range golden.MultiOutputs {
		if len(trace) != spec.Iterations {
			return false
		}
	}
	return true
}

// runner is one in-flight harness execution: the machine, its
// environment, the accumulating outcome, and the golden-splice
// bookkeeping. Factoring the state out of run's locals is what lets a
// Cursor stop mid-iteration, fork a lane there (mid=true) and resume
// either through the exact same loop a solo run takes, preserving the
// byte-identity of every outcome.
type runner struct {
	prog   *cpu.Program
	spec   RunSpec
	budget int
	ports  PortLayout
	port   *ioPort
	vm     *cpu.CPU
	env    Environment
	out    *Outcome
	golden *Outcome
	// mon is spec.Monitor when it is a StatefulMonitor that reports its
	// state, nil otherwise.
	mon StatefulMonitor

	// diverged latches once any output differs from the golden trace:
	// the environment has then left the golden trajectory and splicing
	// the golden remainder would be wrong.
	diverged bool
	// nextCheck/gap implement exponential backoff between digest
	// comparisons, so a latently corrupted run that never re-converges
	// pays O(log iterations) digests, not one per iteration.
	nextCheck int
	gap       int

	injected bool
	k        int  // current control iteration
	cycles   int  // instructions into the current iteration
	mid      bool // resume inside iteration k (a cursor's stop) — skip boundary work once

	// stop, set on a Cursor's run, makes run return nil before the
	// instruction numbered stopAt, where a solo run checks its
	// injection point, with mid set so the next call resumes there.
	stop   bool
	stopAt uint64
}

// newRunner normalises the spec and builds the initial machine state.
func newRunner(prog *cpu.Program, spec RunSpec) *runner {
	spec.Monitor, spec.Observer = spec.Hook(), nil
	budget := spec.CycleBudget
	if budget <= 0 {
		budget = DefaultCycleBudget
	}
	ports := spec.Ports
	if ports == (PortLayout{}) {
		ports = sisoPorts
	}

	// A monitor keeps the fast paths only when its state can be frozen
	// and compared.
	mon := statefulMonitor(spec.Monitor)
	unmonitorable := spec.Monitor != nil && mon == nil

	port := newIOPort(ports, DefaultIdleSpins)
	out := &Outcome{MultiOutputs: make([][]float64, ports.Outputs)}
	for j := range out.MultiOutputs {
		out.MultiOutputs[j] = make([]float64, 0, spec.Iterations)
	}
	var env Environment
	if spec.NewEnv != nil {
		env = spec.NewEnv(spec)
	} else {
		env = newEngineEnv(spec)
	}
	vm := cpu.New(prog, port)
	if !spec.Interpret {
		// The predecoded dispatch engine; behaviour-preserving, so no
		// usability conditions. AttachDecoded itself verifies the
		// stream matches the loaded code image.
		vm.AttachDecoded(cpu.PredecodeCached(prog))
	}

	golden := spec.Golden
	if spec.Injection == nil || unmonitorable ||
		!goldenUsable(golden, spec, ports) {
		golden = nil
	}
	return &runner{
		prog: prog, spec: spec, budget: budget, ports: ports,
		port: port, vm: vm, env: env, out: out, golden: golden, mon: mon,
		gap: 1,
	}
}

// run executes the run to its end, or, on a Cursor, to its stop.
func (r *runner) run() *Outcome {
	spec, out, vm, port, env := r.spec, r.out, r.vm, r.port, r.env
	// Only runs under no monitor or an IdleMonitor, which accounts for
	// the trips, fast-forward through the idle poll loop.
	idle, _ := spec.Monitor.(IdleMonitor)
	skipIdle := spec.Monitor == nil || idle != nil
	// Unmonitored runs execute straight-line stretches in one
	// cpu.CPU.Run call, stopping at every event the loop below must see.
	unwatched := spec.Monitor == nil
	for ; r.k < spec.Iterations; r.k++ {
		k := r.k
		if !r.mid {
			if spec.Abort != nil && spec.Abort() {
				out.Aborted = true
				return r.end(nil)
			}
			if spec.RecordStateHashes {
				out.StateHashes = append(out.StateHashes, vm.StateDigest())
				if r.mon != nil {
					s, _ := r.mon.MonitorState()
					out.MonitorStates = append(out.MonitorStates, s)
				}
			}
			if r.golden != nil && r.injected && !r.diverged && k >= r.nextCheck {
				golden := r.golden
				if vm.InstrCount() == golden.IterationStarts[k] &&
					vm.StateDigest() == golden.StateHashes[k] &&
					r.monitorAt(golden, k) {
					// The machine state, the monitor state and the whole
					// output history match the fault-free run, so the
					// remainder is bit-identical to it: splice it in
					// instead of re-executing.
					for j := range out.MultiOutputs {
						out.MultiOutputs[j] = append(out.MultiOutputs[j], golden.MultiOutputs[j][k:]...)
					}
					out.IterationStarts = append(out.IterationStarts, golden.IterationStarts[k:]...)
					out.FinalState = golden.FinalState
					out.Instructions = golden.Instructions
					out.ReconvergedAt = k
					out.finish(env)
					if len(golden.Speeds) > k && len(out.Speeds) == k {
						out.Speeds = append(out.Speeds, golden.Speeds[k:]...)
					}
					return out
				}
				r.gap *= 2
				r.nextCheck = k + r.gap
			}
			out.IterationStarts = append(out.IterationStarts, vm.InstrCount())
			env.Inputs(k, port.in)
			port.syncSeen = false
			port.readyPolls = 0
			r.cycles = 0
		}
		r.mid = false

		var restore func()
		for !port.syncSeen {
			if r.stop && vm.InstrCount() >= r.stopAt {
				r.mid = true
				return nil
			}
			if spec.Injection != nil && !r.injected && vm.InstrCount() == spec.Injection.At {
				restore = applyInjection(vm, spec.Injection)
				r.injected = true
				r.nextCheck = k + 1
				r.gap = 1
			}
			var n uint64
			if skipIdle && restore == nil && vm.JumpedToPollHead() &&
				(idle == nil || idle.CanSkipPoll(vm.PC)) {
				if n = vm.FastForward(r.untilEvent()); n > 0 && idle != nil {
					idle.SkipPoll(n / cpu.PollTrip)
				}
			}
			if n == 0 {
				if spec.Monitor != nil {
					if t := spec.Monitor.OnInstr(k, vm.InstrCount(), vm); t != nil {
						return r.end(t)
					}
				}
				var err error
				if unwatched && restore == nil {
					n, err = vm.Run(r.untilEvent())
				} else {
					n, err = 1, vm.Step()
				}
				if err != nil {
					return r.end(asTrap(err))
				}
				if restore != nil {
					restore()
					restore = nil
				}
			}
			r.cycles += int(n)
			if r.cycles > r.budget {
				return r.end(&cpu.TrapError{Mech: cpu.MechWatchdog,
					Info: "iteration exceeded its cycle budget"})
			}
		}

		u := port.outputs()
		for j, v := range u {
			out.MultiOutputs[j] = append(out.MultiOutputs[j], v)
			if r.golden != nil && !r.diverged &&
				math.Float64bits(v) != math.Float64bits(r.golden.MultiOutputs[j][k]) {
				r.diverged = true
			}
		}
		env.Deliver(k, u)
		if spec.Monitor != nil {
			if t := spec.Monitor.OnIteration(k, vm); t != nil {
				return r.end(t)
			}
		}
	}
	out.FinalState = vm.FinalState()
	return r.end(nil)
}

// end stops the run where it stands, in iteration r.k: trapped when
// trap is non-nil, else aborted or at its end.
func (r *runner) end(trap *cpu.TrapError) *Outcome {
	if trap != nil {
		r.out.Trap, r.out.TrapIteration = trap, r.k
	}
	r.out.Instructions = r.vm.InstrCount()
	r.out.finish(r.env)
	return r.out
}

// untilEvent returns how many instructions the machine may run before
// the step loop must look at it again: up to the injection, the
// cursor's stop, or the instruction that overruns the watchdog's budget,
// whichever comes first. It is at least 1 at the top of the step loop.
func (r *runner) untilEvent() uint64 {
	now := r.vm.InstrCount()
	limit := uint64(r.budget + 1 - r.cycles)
	if inj := r.spec.Injection; inj != nil && !r.injected && inj.At >= now {
		limit = min(limit, inj.At-now)
	}
	if r.stop {
		limit = min(limit, r.stopAt-now)
	}
	return limit
}

// monitorAt reports whether the run's monitor, if any, is in golden's
// monitor state at iteration boundary k.
func (r *runner) monitorAt(golden *Outcome, k int) bool {
	if r.mon == nil {
		return true
	}
	s, _ := r.mon.MonitorState()
	return s == golden.MonitorStates[k]
}

// finish wires the convenience views of the outcome.
func (o *Outcome) finish(env Environment) {
	if len(o.MultiOutputs) > 0 {
		o.Outputs = o.MultiOutputs[0]
	}
	if e, ok := env.(*engineEnv); ok {
		o.Speeds = e.speeds
	}
}

// asTrap converts the error from CPU.Step or CPU.Run into a
// *TrapError; ErrHalted cannot occur for the looping workloads but is
// mapped to a constraint trap defensively rather than dropped.
func asTrap(err error) *cpu.TrapError {
	if t, ok := err.(*cpu.TrapError); ok {
		return t
	}
	return &cpu.TrapError{Mech: cpu.MechConstraint, Info: err.Error()}
}
