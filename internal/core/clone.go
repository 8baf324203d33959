package core

import "reflect"

// Cloning support for warm-started variable-level campaigns: a guarded
// controller snapshotted mid-run must carry its backups and the history
// of its stateful assertions, or a resumed experiment could recover to
// different values than a full replay and break the campaigns'
// byte-identical-results guarantee. Anything that cannot be cloned
// faithfully declines (nil / false), and campaigns fall back to full
// replay — slower, never wrong.

// AssertionCloner is implemented by assertions that can be deep-copied
// mid-run. Stateless value assertions (RangeAssertion, PerElementRange,
// FiniteAssertion) do not need it: they are shared as-is. A nil return
// means the assertion declines to be cloned.
type AssertionCloner interface {
	CloneAssertion() Assertion
}

// CloneAssertion implements AssertionCloner: an independent copy with
// the same reference history.
func (a *RateAssertion) CloneAssertion() Assertion {
	cp := NewRateAssertion(a.MaxDelta)
	for k, v := range a.prev {
		cp.prev[k] = v
	}
	for k := range a.seeded {
		cp.seeded[k] = true
	}
	return cp
}

// CloneAssertion implements AssertionCloner.
func (a *PerElementRate) CloneAssertion() Assertion {
	cp := NewPerElementRate(a.MaxDelta)
	for k, v := range a.prev {
		cp.prev[k] = v
	}
	for k := range a.seeded {
		cp.seeded[k] = true
	}
	return cp
}

// CloneAssertion implements AssertionCloner, cloning every conjunct; it
// returns nil when any conjunct cannot be cloned.
func (a allAssertion) CloneAssertion() Assertion {
	cp := make(allAssertion, len(a))
	for i, sub := range a {
		c, ok := cloneAssertion(sub)
		if !ok {
			return nil
		}
		cp[i] = c
	}
	return cp
}

// cloneAssertion returns an independent copy of a, or false when a
// faithful copy cannot be guaranteed (e.g. a FuncAssertion whose
// closure may capture mutable state).
func cloneAssertion(a Assertion) (Assertion, bool) {
	switch v := a.(type) {
	case AssertionCloner:
		if c := v.CloneAssertion(); c != nil {
			return c, true
		}
		return nil, false
	case RangeAssertion, PerElementRange, FiniteAssertion:
		// Value types whose Check never mutates them: safe to share.
		return a, true
	default:
		return nil, false
	}
}

// sameAssertion reports whether two assertion interface values refer to
// the same underlying object. It deliberately avoids interface
// equality, which panics for uncomparable dynamic types (allAssertion
// is a slice).
func sameAssertion(a, b Assertion) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	switch va.Kind() {
	case reflect.Pointer:
		return va.Pointer() == vb.Pointer()
	case reflect.Slice:
		return va.Pointer() == vb.Pointer() && va.Len() == vb.Len()
	default:
		// Distinct value copies are indistinguishable, and stateless,
		// so treating them as different is always safe.
		return false
	}
}

// CloneController clones a controller through the CloneStateful() any
// convention (see package control; GuardedController implements it
// too), or returns false when c cannot be cloned.
func CloneController(c Stateful) (Stateful, bool) {
	cl, ok := c.(interface{ CloneStateful() any })
	if !ok {
		return nil, false
	}
	v := cl.CloneStateful()
	if v == nil {
		return nil, false
	}
	s, ok := v.(Stateful)
	return s, ok
}

// Clone returns an independent guard — wrapped controller, assertion
// history, backups and stats — or false when any part declines to be
// cloned.
func (g *Guard) Clone() (*Guard, bool) {
	ctrl, ok := CloneController(g.ctrl)
	if !ok {
		return nil, false
	}
	sa, ok := cloneAssertion(g.stateAssert)
	if !ok {
		return nil, false
	}
	oa := sa
	// NewGuard reuses the state assertion for the output by default;
	// preserve that aliasing so a stateful assertion keeps seeing both
	// vectors through one history, exactly like the original.
	if !sameAssertion(g.stateAssert, g.outAssert) {
		if oa, ok = cloneAssertion(g.outAssert); !ok {
			return nil, false
		}
	}
	cp := &Guard{
		ctrl:        ctrl,
		stateAssert: sa,
		outAssert:   oa,
		policy:      g.policy,
		xBackup:     append([]float64(nil), g.xBackup...),
		stats:       g.stats,
	}
	if g.uBackup != nil {
		cp.uBackup = append([]float64(nil), g.uBackup...)
	}
	return cp, true
}

// CloneStateful lets a guarded controller participate in warm-started
// campaigns; it returns nil when the guard cannot be cloned faithfully.
func (gc *GuardedController) CloneStateful() any {
	g, ok := gc.guard.Clone()
	if !ok {
		return nil
	}
	cp := &GuardedController{guard: g}
	if gc.lastU != nil {
		cp.lastU = append([]float64(nil), gc.lastU...)
	}
	return cp
}
