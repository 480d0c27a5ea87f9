//go:build go1.23

package sim

import "iter"

// start makes body p's stdlib coroutine: p.next resumes it until it parks
// in block or returns, p.stop unwinds it wherever it is parked. This is the
// kernel's one coroutine-spawn site, and hotpathalloc treats a call of it
// like a go statement. The go1.23 build tag keeps go.mod at go 1.22.
func (p *Proc) start(body func(p *Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		body(p)
	})
}
