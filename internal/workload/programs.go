// Package workload contains the fault-injection workload of the
// experiments: the PI engine-speed controller of the paper compiled to
// the target CPU's assembly, in its unprotected form (Algorithm I), the
// form hardened with executable assertions and best effort recovery
// (Algorithm II), and the ablation variants analysed in DESIGN.md. The
// Harness runs a program against the host-side environment simulator
// (the engine model), exchanging sensor and actuator values through the
// CPU's memory-mapped I/O window each control iteration.
//
// Fidelity notes, both load-bearing for the reproduction:
//
//   - All controller arithmetic is double precision (register-pair
//     soft-float), like the Ada code Real-Time Workshop generates for
//     Simulink's default double signals. The width of the state
//     variable determines the grade mix of its corruption: most of a
//     double's bits are low mantissa whose flips cause insignificant
//     failures, while a float32 state would make nearly half of all
//     state flips severe.
//   - The gains and limits (Kp, Ki, T, u_min, u_max) are built from
//     immediates in the protected code segment (FMOVD), matching
//     compiled-in Ada literals. Only the mutable controller state — x
//     and, for Algorithm II, its backups — lives in cached data memory,
//     which is why the paper's severe failures concentrate on "the
//     cache lines where the global variable x is stored".
//   - Every program ends each iteration busy-waiting on the IOReady
//     flag, modelling the real target idling between the host's
//     15.4 ms data exchanges. While the CPU idles its registers hold
//     dead values, but the cached state stays live — the effect behind
//     the paper's cache-dominated value failures.
package workload

import (
	"sync"

	"ctrlguard/internal/cpu"
)

// I/O window offsets used by the workload programs. Sensor and actuator
// values are doubles: high word first, low word at +4.
const (
	IOR     = 0  // float64 in: reference speed r
	IOY     = 8  // float64 in: measured engine speed y
	IOU     = 16 // float64 out: limited throttle command u_lim
	IOSync  = 24 // write 1: iteration complete
	IOReady = 28 // reads 0 until the next sample period begins
)

// Variant names the available workload programs.
type Variant string

// Workload variants. AlgorithmI and AlgorithmII correspond to the
// paper's Algorithms I and II. The remaining variants are the
// ablations called out in DESIGN.md §5.
const (
	// AlgorithmI is the unprotected PI controller.
	AlgorithmI Variant = "alg1"

	// AlgorithmII adds executable assertions on the state and output
	// with best effort recovery (Algorithm II of the paper).
	AlgorithmII Variant = "alg2"

	// AlgorithmIRegState is Algorithm I with the integrator state
	// held in a register pair for the whole run instead of cached
	// memory. Ablation: moves the severe-failure mass from the cache
	// region to the register region.
	AlgorithmIRegState Variant = "alg1-regstate"

	// AlgorithmIIBackupFirst is Algorithm II with the state backup
	// taken BEFORE the assertion, violating step 1 of the paper's
	// generalised scheme: a corrupted state propagates into its own
	// backup, defeating the recovery.
	AlgorithmIIBackupFirst Variant = "alg2-backup-first"

	// AlgorithmIIFailStop replaces best effort recovery with a
	// fail-stop trap (CONSTRAINT ERROR) when an assertion fails.
	AlgorithmIIFailStop Variant = "alg2-failstop"
)

// Variants lists every workload variant.
func Variants() []Variant {
	return []Variant{
		AlgorithmI,
		AlgorithmII,
		AlgorithmIRegState,
		AlgorithmIIBackupFirst,
		AlgorithmIIFailStop,
		MIMOAlgorithmI,
		MIMOAlgorithmII,
	}
}

// Source returns the assembly source of a variant.
func Source(v Variant) (string, bool) {
	src, ok := sources[v]
	return src, ok
}

// Program assembles a variant. It panics only on a programming error in
// the embedded sources (covered by tests).
func Program(v Variant) *cpu.Program {
	if p, ok := programs.Load(v); ok {
		return p.(*cpu.Program)
	}
	src, ok := sources[v]
	if !ok {
		panic("workload: unknown variant " + string(v))
	}
	p, _ := programs.LoadOrStore(v, cpu.MustAssemble(src))
	return p.(*cpu.Program)
}

// programs memoises assembly per variant. The sources are fixed and no
// consumer mutates the returned program (SWIFI flips the loaded
// machine's image, not the Program), and sharing one identity per
// variant keeps PredecodeCached's per-Program stream built once.
var programs sync.Map // Variant -> *cpu.Program

var sources = map[Variant]string{
	AlgorithmI:             srcAlgorithmI,
	AlgorithmII:            srcAlgorithmII,
	AlgorithmIRegState:     srcAlgorithmIRegState,
	AlgorithmIIBackupFirst: srcAlgorithmIIBackupFirst,
	AlgorithmIIFailStop:    srcAlgorithmIIFailStop,
	MIMOAlgorithmI:         srcMIMOAlgorithmI,
	MIMOAlgorithmII:        srcMIMOAlgorithmII,
}

// SpecFor returns the default run specification for a variant: the
// paper's engine workload for the SISO variants, the two-shaft
// workload for the MIMO variants.
func SpecFor(v Variant) RunSpec {
	switch v {
	case MIMOAlgorithmI, MIMOAlgorithmII:
		return MIMORunSpec()
	default:
		return PaperRunSpec()
	}
}

// MIMORunSpec returns the run specification of the MIMO workload: 650
// iterations of the two-loop controller against the two-shaft plant.
func MIMORunSpec() RunSpec {
	return RunSpec{
		Iterations: 650,
		Ports:      mimoPorts,
		NewEnv:     func(spec RunSpec) Environment { return newTwoShaftEnv(spec) },
	}
}

// Register conventions shared by all variants (pairs are even/odd):
//
//	r1      scalar base pointer (I/O window or data segment)
//	r2:r3   reference r, then control error e
//	r4:r5   measurement y, then u_min (0.0), then T
//	r6:r7   state x
//	r8:r9   Kp, then unlimited output u
//	r10:r11 u_max, then Ki
//	r12:r13 limited output u_lim
//	r15     sync/poll scratch

// srcAlgorithmI is the paper's Algorithm I:
//
//	e = r - y
//	u = e*Kp + x
//	u_lim = limit_output(u)
//	if anti_windup_activated then Ki = 0.0 else Ki = integral_gain
//	x = x + T*e*Ki
//	return u_lim
const srcAlgorithmI = `
.code
loop:   SIG
        MOVI r1, 0x2000       ; I/O window base
        LD   r2, 0(r1)        ; r (high word)
        LD   r3, 4(r1)        ; r (low word)
        LD   r4, 8(r1)        ; y (high word)
        LD   r5, 12(r1)       ; y (low word)
        MOVI r1, 0x1000       ; data segment base
        LD   r6, @x(r1)       ; x (high word, cached state variable)
        LD   r7, @x+4(r1)     ; x (low word)
        FSUBD r2, r2, r4      ; e = r - y
        FMOVD r8, 0.068       ; Kp (compiled-in literal)
        FMULD r8, r2, r8      ; Kp*e
        FADDD r8, r8, r6      ; u = Kp*e + x
        FMOVD r10, 70.0       ; throttle upper limit
        FMOVD r4, 0.0         ; throttle lower limit
        OR   r12, r8, r0      ; u_lim = u
        OR   r13, r9, r0
        FCMPD r12, r10
        BLE  cklo
        OR   r12, r10, r0     ; clamp to upper limit
        OR   r13, r11, r0
cklo:   SIG
        FCMPD r12, r4
        BGE  kisel
        OR   r12, r4, r0      ; clamp to lower limit
        OR   r13, r5, r0
kisel:  SIG
        FCMPD r8, r10         ; anti-windup: u beyond a limit and e
        BLE  awlo             ; pushing further out => Ki = 0
        FCMPD r2, r4
        BLE  kipos
        MOVI r10, 0           ; Ki = 0.0
        MOVI r11, 0
        JMP  integ
awlo:   SIG
        FCMPD r8, r4
        BGE  kipos
        FCMPD r2, r4
        BGE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
kipos:  SIG
        FMOVD r10, 0.25       ; Ki = integral gain
integ:  SIG
        FMOVD r4, 0.015384615384615385 ; T, sample interval 10 s / 650
        FMULD r2, r2, r4      ; e*T
        FMULD r2, r2, r10     ; e*T*Ki
        FADDD r6, r6, r2      ; x = x + T*e*Ki
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
        MOVI r1, 0x2000
        ST   r12, 16(r1)      ; deliver u_lim (high word)
        ST   r13, 20(r1)      ; deliver u_lim (low word)
        MOVI r15, 1
        ST   r15, 24(r1)      ; signal iteration complete
wait:   SIG
        LD   r15, 28(r1)      ; poll the sample-period ready flag
        CMP  r15, r0
        BEQ  wait
        JMP  loop
.data
x:      .double 7.0           ; controller state (integrator)
`

// srcAlgorithmII is the paper's Algorithm II: assertions on x and u_lim
// against the throttle's physical range, with best effort recovery from
// the previous iteration's backups.
const srcAlgorithmII = `
.code
loop:   SIG
        MOVI r1, 0x2000
        LD   r2, 0(r1)        ; r
        LD   r3, 4(r1)
        LD   r4, 8(r1)        ; y
        LD   r5, 12(r1)
        MOVI r1, 0x1000
        LD   r6, @x(r1)       ; x
        LD   r7, @x+4(r1)
        FSUBD r2, r2, r4      ; e = r - y
        FMOVD r10, 70.0
        FMOVD r4, 0.0
        FCMPD r6, r4          ; assertion: in_range(x)?
        BLT  recx             ; x < min: ERROR, recover
        FCMPD r6, r10
        BGT  recx             ; x > max: ERROR, recover
        ST   r6, @xold(r1)    ; healthy: back up the state
        ST   r7, @xold+4(r1)
        JMP  xok
recx:   SIG
        LD   r6, @xold(r1)    ; best effort recovery: x = x_old
        LD   r7, @xold+4(r1)
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
xok:    SIG
        FMOVD r8, 0.068
        FMULD r8, r2, r8
        FADDD r8, r8, r6      ; u = Kp*e + x
        OR   r12, r8, r0
        OR   r13, r9, r0
        FCMPD r12, r10
        BLE  cklo
        OR   r12, r10, r0
        OR   r13, r11, r0
cklo:   SIG
        FCMPD r12, r4
        BGE  kisel
        OR   r12, r4, r0
        OR   r13, r5, r0
kisel:  SIG
        FCMPD r8, r10
        BLE  awlo
        FCMPD r2, r4
        BLE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
awlo:   SIG
        FCMPD r8, r4
        BGE  kipos
        FCMPD r2, r4
        BGE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
kipos:  SIG
        FMOVD r10, 0.25
integ:  SIG
        FMOVD r4, 0.015384615384615385
        FMULD r2, r2, r4
        FMULD r2, r2, r10
        FADDD r6, r6, r2      ; x = x + T*e*Ki
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
        FMOVD r4, 0.0         ; reload limits for the output assertion
        FMOVD r10, 70.0
        FCMPD r12, r4         ; assertion: in_range(u_lim)?
        BLT  recu
        FCMPD r12, r10
        BGT  recu
        JMP  uok
recu:   SIG
        LD   r12, @uold(r1)   ; ERROR: deliver previous output
        LD   r13, @uold+4(r1)
        LD   r6, @xold(r1)    ; and restore the matching state
        LD   r7, @xold+4(r1)
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
uok:    SIG
        ST   r12, @uold(r1)   ; back up the output
        ST   r13, @uold+4(r1)
        MOVI r1, 0x2000
        ST   r12, 16(r1)
        ST   r13, 20(r1)
        MOVI r15, 1
        ST   r15, 24(r1)
wait:   SIG
        LD   r15, 28(r1)
        CMP  r15, r0
        BEQ  wait
        JMP  loop
.data
x:      .double 7.0           ; controller state (integrator)
xold:   .double 7.0           ; backup of the state
uold:   .double 7.0           ; backup of the output
`

// srcAlgorithmIRegState keeps the integrator state in the r6:r7 pair
// for the whole run; data memory holds only the seed value read once at
// start-up.
const srcAlgorithmIRegState = `
.code
entry:  SIG
        MOVI r1, 0x1000
        LD   r6, @x(r1)       ; seed the state register pair once
        LD   r7, @x+4(r1)
loop:   SIG
        MOVI r1, 0x2000
        LD   r2, 0(r1)
        LD   r3, 4(r1)
        LD   r4, 8(r1)
        LD   r5, 12(r1)
        FSUBD r2, r2, r4      ; e = r - y
        FMOVD r8, 0.068
        FMULD r8, r2, r8
        FADDD r8, r8, r6      ; u = Kp*e + x (x lives in r6:r7)
        FMOVD r10, 70.0
        FMOVD r4, 0.0
        OR   r12, r8, r0
        OR   r13, r9, r0
        FCMPD r12, r10
        BLE  cklo
        OR   r12, r10, r0
        OR   r13, r11, r0
cklo:   SIG
        FCMPD r12, r4
        BGE  kisel
        OR   r12, r4, r0
        OR   r13, r5, r0
kisel:  SIG
        FCMPD r8, r10
        BLE  awlo
        FCMPD r2, r4
        BLE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
awlo:   SIG
        FCMPD r8, r4
        BGE  kipos
        FCMPD r2, r4
        BGE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
kipos:  SIG
        FMOVD r10, 0.25
integ:  SIG
        FMOVD r4, 0.015384615384615385
        FMULD r2, r2, r4
        FMULD r2, r2, r10
        FADDD r6, r6, r2      ; x stays in r6:r7, never stored
        MOVI r1, 0x2000
        ST   r12, 16(r1)
        ST   r13, 20(r1)
        MOVI r15, 1
        ST   r15, 24(r1)
wait:   SIG
        LD   r15, 28(r1)
        CMP  r15, r0
        BEQ  wait
        JMP  loop
.data
x:      .double 7.0           ; start-up seed for the state register pair
`

// srcAlgorithmIIBackupFirst violates step 1 of the paper's generalised
// scheme by backing the state up BEFORE asserting it, so a corrupted x
// poisons its own recovery point.
const srcAlgorithmIIBackupFirst = `
.code
loop:   SIG
        MOVI r1, 0x2000
        LD   r2, 0(r1)
        LD   r3, 4(r1)
        LD   r4, 8(r1)
        LD   r5, 12(r1)
        MOVI r1, 0x1000
        LD   r6, @x(r1)
        LD   r7, @x+4(r1)
        FSUBD r2, r2, r4
        FMOVD r10, 70.0
        FMOVD r4, 0.0
        ST   r6, @xold(r1)    ; WRONG ORDER: backup before assertion
        ST   r7, @xold+4(r1)
        FCMPD r6, r4
        BLT  recx
        FCMPD r6, r10
        BGT  recx
        JMP  xok
recx:   SIG
        LD   r6, @xold(r1)    ; recovers the already-poisoned backup
        LD   r7, @xold+4(r1)
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
xok:    SIG
        FMOVD r8, 0.068
        FMULD r8, r2, r8
        FADDD r8, r8, r6
        OR   r12, r8, r0
        OR   r13, r9, r0
        FCMPD r12, r10
        BLE  cklo
        OR   r12, r10, r0
        OR   r13, r11, r0
cklo:   SIG
        FCMPD r12, r4
        BGE  kisel
        OR   r12, r4, r0
        OR   r13, r5, r0
kisel:  SIG
        FCMPD r8, r10
        BLE  awlo
        FCMPD r2, r4
        BLE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
awlo:   SIG
        FCMPD r8, r4
        BGE  kipos
        FCMPD r2, r4
        BGE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
kipos:  SIG
        FMOVD r10, 0.25
integ:  SIG
        FMOVD r4, 0.015384615384615385
        FMULD r2, r2, r4
        FMULD r2, r2, r10
        FADDD r6, r6, r2
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
        FMOVD r4, 0.0
        FMOVD r10, 70.0
        FCMPD r12, r4
        BLT  recu
        FCMPD r12, r10
        BGT  recu
        JMP  uok
recu:   SIG
        LD   r12, @uold(r1)
        LD   r13, @uold+4(r1)
        LD   r6, @xold(r1)
        LD   r7, @xold+4(r1)
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
uok:    SIG
        ST   r12, @uold(r1)
        ST   r13, @uold+4(r1)
        MOVI r1, 0x2000
        ST   r12, 16(r1)
        ST   r13, 20(r1)
        MOVI r15, 1
        ST   r15, 24(r1)
wait:   SIG
        LD   r15, 28(r1)
        CMP  r15, r0
        BEQ  wait
        JMP  loop
.data
x:      .double 7.0
xold:   .double 7.0
uold:   .double 7.0
`

// srcAlgorithmIIFailStop replaces best effort recovery with a fail-stop
// trap: the assertion raises CONSTRAINT ERROR instead of recovering,
// modelling strong failure semantics at the cost of availability.
const srcAlgorithmIIFailStop = `
.code
loop:   SIG
        MOVI r1, 0x2000
        LD   r2, 0(r1)
        LD   r3, 4(r1)
        LD   r4, 8(r1)
        LD   r5, 12(r1)
        MOVI r1, 0x1000
        LD   r6, @x(r1)
        LD   r7, @x+4(r1)
        FSUBD r2, r2, r4
        FMOVD r10, 70.0
        FMOVD r4, 0.0
        FCMPD r6, r4
        BLT  dead
        FCMPD r6, r10
        BGT  dead
        JMP  xok
dead:   SIG
        FAIL                  ; fail-stop: constraint error
xok:    SIG
        FMOVD r8, 0.068
        FMULD r8, r2, r8
        FADDD r8, r8, r6
        OR   r12, r8, r0
        OR   r13, r9, r0
        FCMPD r12, r10
        BLE  cklo
        OR   r12, r10, r0
        OR   r13, r11, r0
cklo:   SIG
        FCMPD r12, r4
        BGE  kisel
        OR   r12, r4, r0
        OR   r13, r5, r0
kisel:  SIG
        FCMPD r8, r10
        BLE  awlo
        FCMPD r2, r4
        BLE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
awlo:   SIG
        FCMPD r8, r4
        BGE  kipos
        FCMPD r2, r4
        BGE  kipos
        MOVI r10, 0
        MOVI r11, 0
        JMP  integ
kipos:  SIG
        FMOVD r10, 0.25
integ:  SIG
        FMOVD r4, 0.015384615384615385
        FMULD r2, r2, r4
        FMULD r2, r2, r10
        FADDD r6, r6, r2
        ST   r6, @x(r1)
        ST   r7, @x+4(r1)
        FMOVD r4, 0.0
        FMOVD r10, 70.0
        FCMPD r12, r4
        BLT  dead2
        FCMPD r12, r10
        BGT  dead2
        JMP  uok
dead2:  SIG
        FAIL
uok:    SIG
        MOVI r1, 0x2000
        ST   r12, 16(r1)
        ST   r13, 20(r1)
        MOVI r15, 1
        ST   r15, 24(r1)
wait:   SIG
        LD   r15, 28(r1)
        CMP  r15, r0
        BEQ  wait
        JMP  loop
.data
x:      .double 7.0
`
