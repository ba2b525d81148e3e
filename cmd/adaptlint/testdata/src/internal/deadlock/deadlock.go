// Package deadlock is the lock-order fixture: two locks taken in
// opposite orders across functions — one order via a callee, the
// reverse inline — plus a strictly ordered pair that must stay quiet.
package deadlock

import "sync"

// D owns two locks with a documented order (amu before bmu) that BA
// violates.
type D struct {
	amu sync.Mutex
	bmu sync.Mutex
	n   int
}

// AB holds amu while lockB acquires bmu — the edge amu → bmu arrives
// through the callee's summary.
func (d *D) AB() {
	d.amu.Lock()
	defer d.amu.Unlock()
	d.lockB()
}

func (d *D) lockB() {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	d.n++
}

// BA acquires in the reverse order — the edge bmu → amu closes the
// cycle, so both functions together are a deadlock waiting for the
// right interleaving.
func (d *D) BA() {
	d.bmu.Lock()
	defer d.bmu.Unlock()
	d.amu.Lock()
	defer d.amu.Unlock()
	d.n++
}

// Ordered owns a second pair with one consistent order — an edge but
// no cycle, so clean.
type Ordered struct {
	outer sync.Mutex
	inner sync.Mutex
	n     int
}

// Nest always locks outer before inner.
func (o *Ordered) Nest() {
	o.outer.Lock()
	defer o.outer.Unlock()
	o.inner.Lock()
	defer o.inner.Unlock()
	o.n++
}
