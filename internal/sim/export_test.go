package sim

// Pending returns the number of scheduled (uncancelled) events.
func (e *Engine) Pending() int { return len(e.events) }
