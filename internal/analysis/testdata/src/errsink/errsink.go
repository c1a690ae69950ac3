// Golden cases for the errsink analyzer.
package errsink

import "pagestore"

func localWork() error { return nil }

func drops(p *pagestore.Pool) {
	p.Flush()           // want `error that is dropped here`
	p.Get()             // want `error that is dropped here`
	pagestore.Sync()    // want `error that is dropped here`
	defer p.Flush()     // want `error that is dropped here`
	go pagestore.Sync() // want `error that is dropped here`
}

func handled(p *pagestore.Pool) error {
	if err := p.Flush(); err != nil { // handled: allowed
		return err
	}
	_ = pagestore.Sync() // explicit discard: the escape hatch, allowed
	f, err := p.Get()    // captured: allowed
	_ = f
	p.Release() // no error in the signature: allowed
	localWork() // not an I/O package: allowed
	return err
}

func annotated(p *pagestore.Pool) {
	p.Flush() //dualvet:allow errsink — best-effort flush
}
