package control

// Controller cloning, the capability behind warm-started variable-level
// fault-injection campaigns: each campaign worker walks one fault-free
// controller forward to every injection iteration and runs the
// experiment on a clone of it instead of replaying the prefix.
//
// CloneStateful returns `any` rather than Stateful to keep the method
// usable through the structurally identical Stateful interfaces of
// other packages (core declares its own) without an import cycle; the
// caller type-asserts. A nil return means "not cloneable" and callers
// fall back to full replay.

// CloneStateful returns an independent copy of the controller.
func (c *PI) CloneStateful() any {
	cp := *c
	return &cp
}

// CloneStateful returns an independent copy of the controller.
func (c *ProtectedPI) CloneStateful() any {
	cp := *c
	return &cp
}

// CloneStateful returns an independent copy of the controller.
func (c *PID) CloneStateful() any {
	cp := *c
	return &cp
}

// CloneStateful returns an independent copy of the controller. The
// coefficient matrices are shared — they are private and immutable
// after construction — while the mutable state vectors are deep-copied.
func (s *StateSpace) CloneStateful() any {
	cp := *s
	cp.x = append([]float64(nil), s.x...)
	cp.initX = append([]float64(nil), s.initX...)
	return &cp
}
