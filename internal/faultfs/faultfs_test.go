package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// memFile is an in-memory Backing for direct wrapper tests; it has no
// path, so a power cut leaves it alone.
type memFile struct {
	buf    bytes.Buffer
	syncs  int
	closed bool
}

func (m *memFile) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memFile) Sync() error                 { m.syncs++; return nil }
func (m *memFile) Close() error                { m.closed = true; return nil }
func (m *memFile) Name() string                { return "" }

// crashFile wraps a fresh file on disk with the given faults and
// returns it with its path.
func crashFile(t *testing.T, faults ...Fault) (*File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	b, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	f := Wrap(b, faults...)
	t.Cleanup(func() { _ = f.Close() })
	return f, path
}

// script writes and syncs through f in order; "sync" syncs, anything
// else is written. It returns the sync errors in order.
func script(t *testing.T, f *File, steps ...string) []error {
	t.Helper()
	var errs []error
	for _, s := range steps {
		if s == "sync" {
			errs = append(errs, f.Sync())
		} else if _, err := f.Write([]byte(s)); err != nil && !errors.Is(err, ErrInjected) {
			t.Fatal(err)
		}
	}
	return errs
}

func readBack(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKillKeepsEverythingWritten: a process kill loses nothing that
// reached the file, synced or not, up to and including a torn write.
func TestKillKeepsEverythingWritten(t *testing.T) {
	f, path := crashFile(t, Fault{Op: OpWrite, N: 3, Short: 2})
	script(t, f, "abc", "sync", "def", "ghij", "klm")
	if got := readBack(t, path); got != "abcdefgh" {
		t.Fatalf("after a kill the file reads %q, want %q", got, "abcdefgh")
	}
}

// TestPowerCutKeepsSyncedPrefix: a power cut keeps exactly what the
// last successful Sync covered.
func TestPowerCutKeepsSyncedPrefix(t *testing.T) {
	f, path := crashFile(t)
	script(t, f, "abc", "sync", "def", "sync", "ghi")
	if err := f.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, path); got != "abcdef" {
		t.Fatalf("after a power cut the file reads %q, want the synced prefix %q", got, "abcdef")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("write after a power cut: %v", err)
	}
}

// TestSurvivedSyncFailureLosesRange: a failed Sync the process outlives
// leaves the file writable, and what it covered never reads back after
// a power cut, even though a later Sync succeeded.
func TestSurvivedSyncFailureLosesRange(t *testing.T) {
	f, path := crashFile(t, Fault{Op: OpSync, N: 2, Survive: true})
	errs := script(t, f, "abc", "sync", "def", "sync", "ghi", "sync")
	if errs[0] != nil || !errors.Is(errs[1], ErrInjected) || errs[2] != nil {
		t.Fatalf("sync results = %v, want nil, injected, nil", errs)
	}
	if got := readBack(t, path); got != "abcdefghi" {
		t.Fatalf("before the power cut the file reads %q, want every write", got)
	}
	if err := f.PowerCut(); err != nil {
		t.Fatal(err)
	}
	if got, want := readBack(t, path), "abc\x00\x00\x00ghi"; got != want {
		t.Fatalf("after a power cut the file reads %q, want %q", got, want)
	}
}

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
