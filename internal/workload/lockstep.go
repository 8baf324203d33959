package workload

import (
	"sort"

	"ctrlguard/internal/cpu"
)

// RunBatch executes one experiment per injection over a single shared
// golden prefix. All experiments of a campaign batch replay the same
// fault-free instruction sequence up to their injection points, so the
// leader machine executes that prefix exactly once; at each injection's
// instruction count a full lane (machine, I/O port, environment,
// outcome accumulator) is forked off and later run to completion on its
// own. Every lane outcome is byte-identical to the solo Run of the same
// spec — forks happen at the precise point a solo run would apply its
// injection, and the forked lane then takes the identical code path
// (including the Golden re-convergence splice).
//
// The second result is false when the spec cannot be batched (an
// Observer that must see every instruction, a Monitor, whose state
// lanes do not fork, abort/deadline
// hooks, state-hash recording, a non-cloneable environment); callers
// must then fall back to solo runs. Outcomes may individually be nil
// when the leader never reached an injection's instruction count (the
// fault-free run ends before it); those lanes also need the solo
// fallback.
func RunBatch(prog *cpu.Program, spec RunSpec, injs []*Injection) ([]*Outcome, bool) {
	if len(injs) == 0 ||
		spec.Observer != nil || spec.Monitor != nil ||
		spec.Abort != nil || !spec.Deadline.IsZero() ||
		spec.RecordStateHashes || spec.Injection != nil {
		return nil, false
	}
	for _, inj := range injs {
		if inj == nil {
			return nil, false
		}
	}

	order := make([]int, len(injs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return injs[order[a]].At < injs[order[b]].At
	})

	// The leader replays the fault-free sequence, so a warm-start
	// checkpoint is only sound when it precedes every injection point.
	leaderSpec := spec
	leaderSpec.Injection = nil
	if leaderSpec.From != nil && leaderSpec.From.Instructions() > injs[order[0]].At {
		leaderSpec.From = nil
	}
	leader := newRunner(prog, leaderSpec)
	if _, ok := leader.env.(CloneableEnv); !ok {
		return nil, false
	}

	lanes := make([]*runner, len(injs))
	pending := order
	leader.forkAt = injs[pending[0]].At
	leader.fork = func(r *runner) bool {
		count := r.vm.InstrCount()
		for len(pending) > 0 && injs[pending[0]].At <= count {
			idx := pending[0]
			pending = pending[1:]
			if injs[idx].At == count {
				lanes[idx] = forkLane(r, injs[idx])
			}
		}
		// Once the last lane has forked the leader's remaining tail is
		// dead work; stop it here.
		if len(pending) == 0 {
			return true
		}
		r.forkAt = injs[pending[0]].At
		return false
	}
	leader.run(-1)

	outs := make([]*Outcome, len(injs))
	for i, lane := range lanes {
		if lane == nil {
			continue
		}
		outs[i], _ = lane.run(-1)
	}
	return outs, true
}

// forkLane snapshots the leader mid-iteration into an independent
// runner that will execute inj's experiment tail. The clone resumes
// inside the current iteration (mid=true) at the exact point a solo
// run would test its injection trigger, so the lane's very next check
// applies the injection itself — preserving the solo ordering of
// injection, Step, and the transient model's restore hook.
func forkLane(r *runner, inj *Injection) *runner {
	spec := r.spec
	spec.Injection = inj
	spec.From = nil

	port := newIOPort(r.port.ports, r.port.idleSpins)
	copy(port.in, r.port.in)
	copy(port.outHi, r.port.outHi)
	copy(port.outLo, r.port.outLo)
	port.syncSeen = r.port.syncSeen
	port.readyPolls = r.port.readyPolls
	out := &Outcome{
		MultiOutputs:    make([][]float64, len(r.out.MultiOutputs)),
		IterationStarts: append(make([]uint64, 0, spec.Iterations), r.out.IterationStarts...),
	}
	for j := range out.MultiOutputs {
		out.MultiOutputs[j] = append(make([]float64, 0, spec.Iterations), r.out.MultiOutputs[j]...)
	}

	golden := spec.Golden
	if !goldenUsable(golden, spec, r.ports) {
		golden = nil
	}
	return &runner{
		prog:   r.prog,
		spec:   spec,
		budget: r.budget,
		ports:  r.ports,
		port:   port,
		vm:     r.vm.Clone(port),
		env:    r.env.(CloneableEnv).CloneEnv(),
		out:    out,
		golden: golden,
		gap:    1,
		k:      r.k,
		cycles: r.cycles,
		mid:    true,
	}
}
