package faultfs

import (
	"bytes"
	"errors"
	"testing"
)

// memFile is an in-memory Backing for direct wrapper tests.
type memFile struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Sync() error                 { m.syncs++; return nil }
func (m *memFile) Close() error                { m.closed = true; return nil }

func TestShortWriteCommitsPrefix(t *testing.T) {
	m := &memFile{}
	f := Wrap(m, Fault{Op: OpWrite, N: 2, Short: 3})
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("world!"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("fault did not fire: %v", err)
	}
	if n != 3 || m.buf.String() != "hellowor" {
		t.Errorf("short write committed %d bytes, file = %q", n, m.buf.String())
	}
	// The file is wedged afterwards.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("write after fault: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Errorf("sync after fault: %v", err)
	}
	if got := f.Fired(); len(got) != 1 || got[0].N != 2 {
		t.Errorf("Fired = %+v", got)
	}
}

func TestSyncFaultAndOps(t *testing.T) {
	m := &memFile{}
	f := Wrap(m, Fault{Op: OpSync, N: 2})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync fault did not fire: %v", err)
	}
	if m.syncs != 1 {
		t.Errorf("backing syncs = %d, want 1", m.syncs)
	}
	if f.Ops(OpSync) != 2 || f.Ops(OpWrite) != 0 {
		t.Errorf("ops = %d sync, %d write", f.Ops(OpSync), f.Ops(OpWrite))
	}
}

func TestCloseFaultStillCloses(t *testing.T) {
	m := &memFile{}
	custom := errors.New("custom")
	f := Wrap(m, Fault{Op: OpClose, N: 1, Err: custom})
	if err := f.Close(); err != custom {
		t.Fatalf("close fault = %v", err)
	}
	if !m.closed {
		t.Error("backing file left open")
	}
}

func TestNoFaults(t *testing.T) {
	m := &memFile{}
	f := Wrap(m)
	if _, err := f.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if m.buf.String() != "ok" || m.syncs != 1 || !m.closed {
		t.Errorf("backing state: %q, %d, %v", m.buf.String(), m.syncs, m.closed)
	}
}

func TestOpString(t *testing.T) {
	if OpWrite.String() != "write" || OpSync.String() != "sync" || OpClose.String() != "close" || Op(9).String() == "" {
		t.Error("Op.String")
	}
}
