package workload

import (
	"errors"

	"ctrlguard/internal/cpu"
)

// Cursor is a fault-free run that only moves forward and forks
// experiments off the point it has reached. The paper's SCIFI
// experiment runs the target to the injection instruction, flips a bit
// and resumes; a cursor runs that fault-free prefix once for every
// experiment that injects later. Fork stops the cursor at the exact
// point a solo run with the lane's injection reaches before applying
// it, and the forked lane then takes the identical code path (the
// golden splice included), so every lane's outcome equals the solo Run
// of the same spec bit for bit. A Cursor is not safe for concurrent
// use.
type Cursor struct {
	r   *runner
	end bool // the fault-free run ended: no later instruction is reachable
}

// NewCursor starts a cursor at instruction 0 of prog under spec, which
// must be fault-free. A monitored cursor runs under its own spec.Monitor
// and hands that monitor's state to every lane. NewCursor fails when
// spec injects or records state hashes, when its environment cannot be
// cloned (CloneableEnv), or when its Monitor cannot report its state
// (StatefulMonitor).
func NewCursor(prog *cpu.Program, spec RunSpec) (*Cursor, error) {
	r := newRunner(prog, spec)
	switch {
	case spec.Injection != nil:
		return nil, errors.New("workload: a cursor runs fault-free, but the spec injects")
	case spec.RecordStateHashes:
		return nil, errors.New("workload: a cursor records no state hashes")
	case r.spec.Monitor != nil && r.mon == nil:
		return nil, errors.New("workload: the monitor cannot report its state")
	}
	if _, ok := r.env.(CloneableEnv); !ok {
		return nil, errors.New("workload: the environment cannot be cloned (CloneableEnv)")
	}
	r.stop = true
	return &Cursor{r: r}, nil
}

// Fork runs lane's experiment off the cursor: it advances the cursor to
// instruction lane.Injection.At and runs a copy of the machine, its
// environment and the outcome so far from there. lane must be the
// cursor's spec with its own Injection and, when the cursor is
// monitored, a fresh Monitor of the same configuration; its Golden,
// Deadline and Abort apply to the lane alone.
//
// Fork returns nil, and leaves the cursor where it is, when the
// injection lies behind the cursor, when lane records state hashes, or
// when its monitor does not match the cursor's. It returns nil when the
// fault-free run ends before the injection point, and from then on for
// every lane. Callers run those experiments from instruction 0 with
// Run.
func (c *Cursor) Fork(lane RunSpec) *Outcome {
	lane.Monitor, lane.Observer = lane.Hook(), nil
	inj := lane.Injection
	if c.end || inj == nil || inj.At < c.r.vm.InstrCount() ||
		lane.RecordStateHashes ||
		(c.r.mon == nil) != (lane.Monitor == nil) ||
		lane.Monitor != nil && statefulMonitor(lane.Monitor) == nil {
		return nil
	}
	c.r.stopAt = inj.At
	if c.r.run() != nil {
		c.end = true
		return nil
	}
	return forkLane(c.r, lane).run()
}

// forkLane copies the stopped cursor r into an independent runner for
// lane's experiment and puts lane's fresh monitor into the state of the
// cursor's. The copy resumes inside the current iteration (mid=true) at
// the exact point a solo run tests its injection trigger, so the lane's
// very next check applies the injection itself — preserving the solo
// ordering of injection, Step, and the transient model's restore hook.
func forkLane(r *runner, lane RunSpec) *runner {
	port := newIOPort(r.port.ports, r.port.idleSpins)
	copy(port.in, r.port.in)
	copy(port.outHi, r.port.outHi)
	copy(port.outLo, r.port.outLo)
	port.syncSeen = r.port.syncSeen
	port.readyPolls = r.port.readyPolls
	out := &Outcome{
		MultiOutputs:    make([][]float64, len(r.out.MultiOutputs)),
		IterationStarts: append(make([]uint64, 0, lane.Iterations), r.out.IterationStarts...),
	}
	for j := range out.MultiOutputs {
		out.MultiOutputs[j] = append(make([]float64, 0, lane.Iterations), r.out.MultiOutputs[j]...)
	}

	mon := statefulMonitor(lane.Monitor)
	if mon != nil {
		s, _ := r.mon.MonitorState()
		mon.RestoreMonitorState(s)
	}
	golden := lane.Golden
	if !goldenUsable(golden, lane, r.ports) {
		golden = nil
	}
	return &runner{
		prog:   r.prog,
		spec:   lane,
		budget: r.budget,
		ports:  r.ports,
		port:   port,
		vm:     r.vm.Clone(port),
		env:    r.env.(CloneableEnv).CloneEnv(),
		out:    out,
		golden: golden,
		mon:    mon,
		gap:    1,
		k:      r.k,
		cycles: r.cycles,
		mid:    true,
	}
}
