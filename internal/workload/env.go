package workload

import "ctrlguard/internal/plant"

// Environment is the host side of the data exchange: the controlled
// object the paper's environment simulator played. Each iteration the
// harness writes the environment's input values to the I/O window,
// runs the target until it delivers its outputs, and feeds them back.
type Environment interface {
	// Inputs writes the values of the input ports for iteration k into
	// in, which holds one element per input port.
	Inputs(k int, in []float64)

	// Deliver consumes the outputs of iteration k. The harness reuses
	// u for the next iteration, so it must not be retained.
	Deliver(k int, u []float64)
}

// CloneableEnv is implemented by environment simulators that can be
// deep-copied mid-run, the capability a Cursor needs to fork lanes. The
// engine and two-shaft environments implement it; a custom
// RunSpec.NewEnv environment that does not gets no cursor (its runs
// start from instruction 0).
type CloneableEnv interface {
	Environment

	// CloneEnv returns an independent copy frozen at the current
	// state.
	CloneEnv() Environment
}

// PortLayout describes a workload's I/O window: Inputs doubles followed
// by Outputs doubles, then the sync word and the ready flag. Input j
// lives at byte offset 8·j, output j at 8·(Inputs+j), sync at
// 8·(Inputs+Outputs) and ready 4 bytes after.
type PortLayout struct {
	Inputs  int
	Outputs int
}

// SyncOffset returns the byte offset of the sync word.
func (p PortLayout) SyncOffset() uint32 {
	return uint32(8 * (p.Inputs + p.Outputs))
}

// ReadyOffset returns the byte offset of the ready flag.
func (p PortLayout) ReadyOffset() uint32 {
	return p.SyncOffset() + 4
}

// sisoPorts is the engine workload's layout: r and y in, u_lim out.
var sisoPorts = PortLayout{Inputs: 2, Outputs: 1}

// mimoPorts is the two-shaft workload's layout: r1, r2, n1, n2 in and
// u1, u2 out.
var mimoPorts = PortLayout{Inputs: 4, Outputs: 2}

// engineEnv is the paper's environment: the engine model fed by the
// reference profile.
type engineEnv struct {
	eng    *plant.Engine
	ref    plant.ReferenceProfile
	t      float64
	y      float64
	speeds []float64
}

var _ Environment = (*engineEnv)(nil)

func newEngineEnv(spec RunSpec) *engineEnv {
	eng := plant.NewEngine(spec.EngineCfg)
	return &engineEnv{
		eng:    eng,
		ref:    spec.Reference,
		t:      spec.EngineCfg.T,
		y:      eng.Speed(),
		speeds: make([]float64, 0, spec.Iterations),
	}
}

func (e *engineEnv) Inputs(k int, in []float64) {
	in[0], in[1] = e.ref(float64(k)*e.t), e.y
}

func (e *engineEnv) Deliver(_ int, u []float64) {
	e.y = e.eng.Step(u[0])
	e.speeds = append(e.speeds, e.y)
}

// CloneEnv implements CloneableEnv: an independent engine environment
// frozen mid-run, including the accumulated speed trace.
func (e *engineEnv) CloneEnv() Environment {
	cp := *e
	cp.eng = e.eng.Clone()
	cp.speeds = append(make([]float64, 0, cap(e.speeds)), e.speeds...)
	return &cp
}

// twoShaftEnv is the MIMO workload's environment: the two-spool plant
// with per-shaft reference profiles.
type twoShaftEnv struct {
	shafts     *plant.TwoShaft
	ref1, ref2 plant.ReferenceProfile
	t          float64
	n1, n2     float64
}

var _ Environment = (*twoShaftEnv)(nil)

func newTwoShaftEnv(RunSpec) *twoShaftEnv {
	cfg := plant.DefaultTwoShaftConfig()
	p := plant.NewTwoShaft(cfg)
	ref1, ref2 := plant.PaperMIMOReference()
	n1, n2 := p.Speeds()
	return &twoShaftEnv{shafts: p, ref1: ref1, ref2: ref2, t: cfg.T, n1: n1, n2: n2}
}

func (e *twoShaftEnv) Inputs(k int, in []float64) {
	t := float64(k) * e.t
	in[0], in[1], in[2], in[3] = e.ref1(t), e.ref2(t), e.n1, e.n2
}

func (e *twoShaftEnv) Deliver(_ int, u []float64) {
	e.n1, e.n2 = e.shafts.Step(u[0], u[1])
}

// CloneEnv implements CloneableEnv.
func (e *twoShaftEnv) CloneEnv() Environment {
	cp := *e
	cp.shafts = e.shafts.Clone()
	return &cp
}
