package workload

import (
	"math"
	"testing"
)

func TestIOPortInputReadback(t *testing.T) {
	p := newIOPort(PortLayout{Inputs: 2, Outputs: 1}, 3)
	p.in[0] = 2000.5
	p.in[1] = -3.25
	read := func(off uint32) uint64 {
		return uint64(p.ReadIO(off))<<32 | uint64(p.ReadIO(off+4))
	}
	if got := math.Float64frombits(read(0)); got != 2000.5 {
		t.Errorf("input 0 = %v", got)
	}
	if got := math.Float64frombits(read(8)); got != -3.25 {
		t.Errorf("input 1 = %v", got)
	}
}

func TestIOPortOutputWriteAndReadback(t *testing.T) {
	p := newIOPort(PortLayout{Inputs: 2, Outputs: 2}, 3)
	bits := math.Float64bits(7.125)
	p.WriteIO(24, uint32(bits>>32)) // output 1 high (offset 8*(2+1))
	p.WriteIO(28, uint32(bits))
	if got := p.outputs()[1]; got != 7.125 {
		t.Errorf("output 1 = %v", got)
	}
	// The program can read its own delivered outputs back (used by
	// the MIMO output assertions).
	hi, lo := p.ReadIO(24), p.ReadIO(28)
	if math.Float64frombits(uint64(hi)<<32|uint64(lo)) != 7.125 {
		t.Error("output read-back wrong")
	}
}

func TestIOPortSyncAndReady(t *testing.T) {
	ports := PortLayout{Inputs: 2, Outputs: 1}
	p := newIOPort(ports, 2)
	if p.syncSeen {
		t.Fatal("sync before write")
	}
	p.WriteIO(ports.SyncOffset(), 1)
	if !p.syncSeen {
		t.Fatal("sync write not observed")
	}
	// Ready flag: 0 for idleSpins polls, then 1.
	if p.ReadIO(ports.ReadyOffset()) != 0 || p.ReadIO(ports.ReadyOffset()) != 0 {
		t.Error("ready flag set too early")
	}
	if p.ReadIO(ports.ReadyOffset()) != 1 {
		t.Error("ready flag never set")
	}
}

func TestIOPortIgnoresStrayWrites(t *testing.T) {
	p := newIOPort(PortLayout{Inputs: 2, Outputs: 1}, 2)
	p.WriteIO(0, 42)  // input port: read-only from the target side
	p.WriteIO(60, 42) // beyond the window
	if p.in[0] != 0 || p.syncSeen {
		t.Error("stray writes had effects")
	}
}

func TestEngineEnvFeedsLoop(t *testing.T) {
	spec := PaperRunSpec()
	env := newEngineEnv(spec)
	in := make([]float64, 2)
	env.Inputs(0, in)
	if in[0] != 2000 || math.Abs(in[1]-2000) > 1 {
		t.Errorf("initial inputs = %v", in)
	}
	env.Deliver(0, []float64{70})
	env.Inputs(1, in)
	if in[1] <= 2000 {
		t.Errorf("full throttle did not raise speed: %v", in[1])
	}
	if len(env.speeds) != 1 {
		t.Error("telemetry not recorded")
	}
}

func TestTwoShaftEnvFeedsLoop(t *testing.T) {
	env := newTwoShaftEnv(RunSpec{})
	in := make([]float64, 4)
	env.Inputs(0, in)
	if in[0] != 300 || in[1] != 200 {
		t.Errorf("references = %v, %v", in[0], in[1])
	}
	env.Deliver(0, []float64{100, 40})
	in2 := make([]float64, 4)
	env.Inputs(1, in2)
	if in2[2] <= in[2] || in2[3] <= in[3] {
		t.Error("max actuators did not raise shaft speeds")
	}
	// After the step time the references rise.
	inLate := make([]float64, 4)
	env.Inputs(400, inLate)
	if inLate[0] != 400 || inLate[1] != 250 {
		t.Errorf("post-step references = %v, %v", inLate[0], inLate[1])
	}
}

func TestRunMIMOSpecIndependentRuns(t *testing.T) {
	// The environment factory must give independent environments:
	// two concurrent runs from one spec cannot share plant state.
	spec := MIMORunSpec()
	spec.Iterations = 30
	prog := Program(MIMOAlgorithmI)
	a := Run(prog, spec)
	b := Run(prog, spec)
	for k := range a.Outputs {
		if a.Outputs[k] != b.Outputs[k] {
			t.Fatalf("runs diverged at %d; environment state leaked", k)
		}
	}
}
