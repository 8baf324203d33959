package cpu

// AttachedDecoded returns the stream the machine's dispatch loop runs
// (nil when it interprets), for the external tests.
func (c *CPU) AttachedDecoded() *Decoded { return c.dec }
