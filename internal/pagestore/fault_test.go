package pagestore

import (
	"errors"
	"testing"
)

func TestFaultStoreReadFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(64))
	id, err := fs.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	fs.FailReadAfter(2)
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("first read should pass: %v", err)
	}
	if err := fs.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("second read should fail: %v", err)
	}
	if err := fs.ReadPage(id, buf); err != nil {
		t.Fatalf("after tripping, reads recover: %v", err)
	}
}

func TestFaultStoreWriteAndAllocFaults(t *testing.T) {
	fs := NewFaultStore(NewMemStore(64))
	id, _ := fs.Alloc()
	buf := make([]byte, 64)
	fs.FailWriteAfter(1)
	if err := fs.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write fault: %v", err)
	}
	fs.FailAllocAfter(1)
	if _, err := fs.Alloc(); !errors.Is(err, ErrInjected) {
		t.Fatalf("alloc fault: %v", err)
	}
	fs.Disarm()
	if _, err := fs.Alloc(); err != nil {
		t.Fatalf("disarmed alloc: %v", err)
	}
}

func TestFaultStoreFreeFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(64))
	a, _ := fs.Alloc()
	b, _ := fs.Alloc()
	fs.FailFreeAfter(1)
	if err := fs.Free(a); !errors.Is(err, ErrInjected) {
		t.Fatalf("free fault: %v", err)
	}
	if n := fs.NumAllocated(); n != 2 {
		t.Fatalf("a failed free released its page: %d allocated, want 2", n)
	}
	fs.FailFreeAfter(2)
	fs.Disarm()
	for _, id := range []PageID{a, b} {
		if err := fs.Free(id); err != nil {
			t.Fatalf("disarmed free of %d: %v", id, err)
		}
	}
	if n := fs.NumAllocated(); n != 0 {
		t.Fatalf("%d pages allocated after freeing both", n)
	}
}

func TestPoolSurfacesReadFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(64))
	pool := NewPool(fs, 8)
	f, err := pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	f.Release()
	if err := pool.EvictAll(); err != nil {
		t.Fatal(err)
	}
	fs.FailReadAfter(1)
	if _, err := pool.Get(id); !errors.Is(err, ErrInjected) {
		t.Fatalf("pool must surface the read fault, got %v", err)
	}
	// The pool must remain usable afterwards.
	g, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
}

func TestPoolSurfacesEvictionWriteFault(t *testing.T) {
	fs := NewFaultStore(NewMemStore(64))
	pool := NewPool(fs, 8)
	// Dirty one page, then force eviction while writes fail.
	f, _ := pool.NewPage()
	f.MarkDirty()
	f.Release()
	fs.FailWriteAfter(1)
	var sawErr bool
	for i := 0; i < 10; i++ {
		g, err := pool.NewPage()
		if err != nil {
			sawErr = true
			break
		}
		g.Release()
	}
	if !sawErr {
		t.Fatal("eviction write-back fault never surfaced")
	}
}
