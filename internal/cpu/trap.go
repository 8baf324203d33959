package cpu

import "fmt"

// Mechanism identifies the error-detection mechanism (EDM) that trapped,
// mirroring Table 1 of the paper (the Thor microprocessor's EDMs).
type Mechanism string

// The error-detection mechanisms of the simulated CPU. DATA ERROR
// (uncorrectable memory error) is listed for completeness but cannot
// fire in this model because faults are injected only into CPU state
// elements, never into parity-protected main memory. The master/slave
// comparator of Thor is not modelled (the paper did not use it either).
// WATCHDOG TIMER replaces the bus time-out of the paper's BUS ERROR for
// runaway executions: the host terminates an iteration that exceeds its
// cycle budget.
const (
	MechBusError     Mechanism = "BUS ERROR"
	MechAddressError Mechanism = "ADDRESS ERROR"
	MechInstrError   Mechanism = "INSTRUCTION ERROR"
	MechJumpError    Mechanism = "JUMP ERROR"
	MechConstraint   Mechanism = "CONSTRAINT ERROR"
	MechAccessCheck  Mechanism = "ACCESS CHECK"
	MechStorageError Mechanism = "STORAGE ERROR"
	MechOverflow     Mechanism = "OVERFLOW CHECK"
	MechUnderflow    Mechanism = "UNDERFLOW CHECK"
	MechDivision     Mechanism = "DIVISION CHECK"
	MechIllegalOp    Mechanism = "ILLEGAL OPERATION"
	MechDataError    Mechanism = "DATA ERROR"
	MechControlFlow  Mechanism = "CONTROL FLOW ERROR"
	MechWatchdog     Mechanism = "WATCHDOG TIMER"

	// Detector mechanisms contributed by internal/detect: SCFI-style
	// basic-block signature monitoring and behavior-derived state
	// automata. They are not Thor EDMs but flow through the same trap
	// plumbing so campaigns classify their verdicts as detections.
	MechSignature Mechanism = "SIGNATURE MONITOR"
	MechAutomaton Mechanism = "BEHAVIOR AUTOMATON"
)

// Mechanisms lists every EDM in the order of Table 1, for table
// rendering.
func Mechanisms() []Mechanism {
	return []Mechanism{
		MechBusError,
		MechAddressError,
		MechDataError,
		MechInstrError,
		MechJumpError,
		MechConstraint,
		MechAccessCheck,
		MechStorageError,
		MechOverflow,
		MechUnderflow,
		MechDivision,
		MechIllegalOp,
		MechControlFlow,
		MechWatchdog,
		MechSignature,
		MechAutomaton,
	}
}

// TrapError is returned by CPU.Step and CPU.Run when an
// error-detection mechanism fires. Execution cannot continue after a
// trap.
type TrapError struct {
	Mech Mechanism
	PC   uint32
	Addr uint32 // faulting data address, when applicable
	Info string
}

// Error implements error.
func (t *TrapError) Error() string {
	if t.Info != "" {
		return fmt.Sprintf("cpu: %s at pc=%#x: %s", t.Mech, t.PC, t.Info)
	}
	return fmt.Sprintf("cpu: %s at pc=%#x", t.Mech, t.PC)
}
