// Package atomicfunc exercises the typed-atomics rule: the address-style
// sync/atomic functions are banned; methods of the atomic types pass.
package atomicfunc

import "sync/atomic"

type counter struct {
	n     uint64
	typed atomic.Uint64
}

func (c *counter) inc() {
	atomic.AddUint64(&c.n, 1) // want "call to sync/atomic.AddUint64"
}

func (c *counter) read() uint64 {
	return atomic.LoadUint64(&c.n) // want "call to sync/atomic.LoadUint64"
}

// incTyped is the false-positive-avoidance case: a typed atomic has no
// plain access to mix with.
func (c *counter) incTyped() uint64 {
	return c.typed.Add(1)
}

func (c *counter) allowed() {
	//repro:allow atomicfunc -- fixture: suppression reaches this analyzer too
	atomic.StoreUint64(&c.n, 0)
}
