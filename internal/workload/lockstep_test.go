package workload

import (
	"testing"
	"time"

	"ctrlguard/internal/cpu"
)

// batchInjections builds a batch spanning every fault model, duplicate
// injection points, and unsorted At order — the shapes a campaign feed
// actually produces.
func batchInjections(golden *Outcome) []*Injection {
	at := func(k int) uint64 { return golden.IterationStarts[k] }
	return []*Injection{
		{At: at(40) + 7, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		{At: 0, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r7", Bit: 30}},
		{At: at(10) + 11, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "pc", Bit: 2}, Model: ModelPC},
		{At: at(40) + 7, Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line2.data1", Bit: 17}},
		{At: at(70) + 3, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r4", Bit: 12}, Model: ModelTransient},
		{At: at(25) + 60, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r6", Bit: 5}, Model: ModelBurst, Width: 3},
		{At: golden.Instructions - 1, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "flagZ", Bit: 0}},
		{At: at(90), Bit: cpu.StateBit{Region: cpu.RegionCache, Element: "line0.dirty", Bit: 0}},
	}
}

// TestLockstepBatchByteIdentical is the core lockstep invariant: every
// lane outcome of RunBatch equals the solo Run of the same injection,
// bit for bit, across variants, fault models and golden-splice use.
func TestLockstepBatchByteIdentical(t *testing.T) {
	for _, v := range []Variant{AlgorithmI, AlgorithmII, MIMOAlgorithmI} {
		t.Run(string(v), func(t *testing.T) {
			prog := Program(v)
			spec := SpecFor(v)
			spec.Iterations = 120
			goldenSpec := spec
			goldenSpec.RecordStateHashes = true
			golden := Run(prog, goldenSpec)

			for _, useGolden := range []bool{false, true} {
				batch := spec
				if useGolden {
					batch.Golden = golden
				}
				injs := batchInjections(golden)
				outs, ok := RunBatch(prog, batch, injs)
				if !ok {
					t.Fatal("RunBatch declined a batchable spec")
				}
				if len(outs) != len(injs) {
					t.Fatalf("%d outcomes for %d injections", len(outs), len(injs))
				}
				for i, inj := range injs {
					if outs[i] == nil {
						t.Fatalf("lane %d (At=%d) not forked; golden has %d instructions",
							i, inj.At, golden.Instructions)
					}
					solo := batch
					solo.Injection = inj
					outcomesIdentical(t, inj.Bit.String(), outs[i], Run(prog, solo))
				}
			}
		})
	}
}

// TestLockstepUnreachableInjection pins the contract for injection
// points past the end of the fault-free run: the lane is reported nil
// (caller falls back to a solo run) and the reachable lanes are
// unaffected.
func TestLockstepUnreachableInjection(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)

	injs := []*Injection{
		{At: golden.IterationStarts[5], Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
		{At: golden.Instructions + 1000, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
	}
	outs, ok := RunBatch(prog, spec, injs)
	if !ok {
		t.Fatal("RunBatch declined")
	}
	if outs[1] != nil {
		t.Error("unreachable injection produced an outcome")
	}
	if outs[0] == nil {
		t.Fatal("reachable lane missing")
	}
	solo := spec
	solo.Injection = injs[0]
	outcomesIdentical(t, "reachable lane", outs[0], Run(prog, solo))
}

// TestLockstepWithCheckpoint pins warm-start composition under every
// fault model: a From checkpoint preceding every injection shortens the
// leader's replay without changing any lane; a checkpoint past the
// earliest injection is silently dropped, again without changing any
// lane. Lanes splice the golden remainder, so a transient restored at
// the end of its iteration must re-converge.
func TestLockstepWithCheckpoint(t *testing.T) {
	prog := Program(AlgorithmII)
	spec := shortSpec()
	goldenSpec := spec
	goldenSpec.RecordStateHashes = true
	golden := Run(prog, goldenSpec)

	ck, err := CaptureCheckpoint(prog, spec, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ks   []int
	}{
		{"checkpoint before all injections", []int{45, 60, 100}},
		{"checkpoint after earliest injection", []int{5, 60, 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, m := range allModels {
				t.Run(string(m), func(t *testing.T) {
					var injs []*Injection
					var iters []int
					for _, k := range tc.ks {
						mid := Injection{At: golden.IterationStarts[k] + 9,
							Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}}
						for _, inj := range withModel(append(edgeInjections(golden, k), mid), m) {
							inj := inj
							injs = append(injs, &inj)
							iters = append(iters, k)
						}
					}
					batch := spec
					batch.From = ck
					batch.Golden = golden
					outs, ok := RunBatch(prog, batch, injs)
					if !ok {
						t.Fatal("RunBatch declined")
					}
					for i, inj := range injs {
						// The reference is the plain full replay: no
						// checkpoint, no golden splice.
						solo := spec
						solo.Injection = inj
						outcomesIdentical(t, tc.name, outs[i], Run(prog, solo))
						if k := iters[i]; straddles(golden, k, *inj) && outs[i].ReconvergedAt <= k {
							t.Errorf("%s at the end of iteration %d: lane reconverged at %d", inj.Bit, k, outs[i].ReconvergedAt)
						}
					}
				})
			}
		})
	}
}

// TestLockstepInterpretCrossVal runs the three engines the
// lockstep-crossval CI job exercises — classic interpreter, predecoded
// solo, lockstep batch — and requires identical outcomes.
func TestLockstepInterpretCrossVal(t *testing.T) {
	prog := Program(AlgorithmI)
	spec := shortSpec()
	golden := Run(prog, spec)
	injs := batchInjections(golden)

	outs, ok := RunBatch(prog, spec, injs)
	if !ok {
		t.Fatal("RunBatch declined")
	}
	for i, inj := range injs {
		interp := spec
		interp.Interpret = true
		interp.Injection = inj
		want := Run(prog, interp)

		solo := spec
		solo.Injection = inj
		outcomesIdentical(t, "predecoded solo vs interpreted", Run(prog, solo), want)
		outcomesIdentical(t, "lockstep lane vs interpreted", outs[i], want)
	}
}

// TestLockstepDeclines pins every condition under which RunBatch must
// refuse to batch rather than risk a divergent outcome.
func TestLockstepDeclines(t *testing.T) {
	prog := Program(AlgorithmI)
	base := shortSpec()
	injs := []*Injection{
		{At: 100, Bit: cpu.StateBit{Region: cpu.RegionRegisters, Element: "r5", Bit: 3}},
	}

	decline := func(name string, spec RunSpec, batch []*Injection) {
		if _, ok := RunBatch(prog, spec, batch); ok {
			t.Errorf("%s: RunBatch accepted", name)
		}
	}
	decline("empty batch", base, nil)
	decline("nil injection", base, []*Injection{nil})

	withObserver := base
	withObserver.Observer = func(int, uint64, *cpu.CPU) {}
	decline("observer", withObserver, injs)

	withAbort := base
	withAbort.Abort = func() bool { return false }
	decline("abort hook", withAbort, injs)

	withDeadline := base
	withDeadline.Deadline = time.Now().Add(time.Hour)
	decline("deadline", withDeadline, injs)

	withHashes := base
	withHashes.RecordStateHashes = true
	decline("state hashes", withHashes, injs)

	withInjection := base
	withInjection.Injection = injs[0]
	decline("spec-level injection", withInjection, injs)

	withMonitor := base
	withMonitor.Monitor = nopMonitor{}
	decline("monitor", withMonitor, injs)
}

type nopMonitor struct{}

func (nopMonitor) OnInstr(int, uint64, *cpu.CPU) *cpu.TrapError { return nil }
func (nopMonitor) OnIteration(int, *cpu.CPU) *cpu.TrapError     { return nil }
