// Package faultfs wraps a file with deterministic fault injection so
// crash-recovery is tested by construction, not luck. A File counts
// write, sync and close operations and fires configured faults at
// exact operation indexes: a write error, a *short* write (the torn
// tail a crash leaves), or a sync failure. A crash has three modeled
// outcomes:
//
//   - process kill: every byte written before the fault stays in the
//     file, as the page cache keeps it, so reopening the path sees what
//     a killed process left behind;
//   - power cut (PowerCut): the file keeps only what its last
//     successful Sync covered;
//   - survived fsync failure (Fault.Survive): the failed Sync returns
//     its error but the file stays writable, and, as on Linux, the
//     range that Sync covered is lost to a power cut even after a
//     later Sync succeeds.
//
// Directory entries are not modeled: a create, rename or unlink counts
// as durable once it returns, so a crash that loses an unsynced one is
// out of scope.
//
// File satisfies journal.File structurally; the kill matrices hand
// faultfs.Wrap to journal.Config.WrapFile.
package faultfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrInjected is the error injected faults return (wrapped with the
// operation and index).
var ErrInjected = errors.New("faultfs: injected fault")

// Op identifies the operation a fault targets.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpClose
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Fault fires when the N-th operation of its kind runs (1-based).
type Fault struct {
	Op Op
	N  int
	// Short applies to OpWrite: that many bytes of the failing write
	// reach the underlying file before the error — a torn write.
	// Zero means the write fails wholesale.
	Short int
	// Survive applies to OpSync: the process outlives the failure, so
	// the file is not wedged, but what the sync covered is lost.
	Survive bool
	// Err overrides the returned error (default ErrInjected).
	Err error
}

// Backing is what File wraps — the journal.File contract plus the
// path a power cut rewrites, so a real *os.File fits.
type Backing interface {
	io.Writer
	Sync() error
	Close() error
	Name() string
}

// File is a fault-injecting file wrapper. Operations serialize on an
// internal mutex, so a File can back the journal's group-commit
// pipeline, where one fsync may overlap appends; operation indexes
// stay deterministic per operation kind regardless of interleaving.
type File struct {
	mu     sync.Mutex
	b      Backing
	faults []Fault
	ops    [3]int // operations seen, by Op
	dead   bool   // a fired write or unsurvived sync fault wedges the file

	// What a power cut keeps. Writes append at end; the last successful
	// Sync covered up to synced; lost holds the ranges failed syncs
	// covered. Content present at Wrap counts as synced.
	at          os.FileInfo
	end, synced int64
	lost        [][2]int64
}

// Wrap returns f with the given faults armed.
func Wrap(b Backing, faults ...Fault) *File {
	f := &File{b: b, faults: append([]Fault(nil), faults...)}
	if fi, err := os.Stat(b.Name()); err == nil {
		f.at, f.end, f.synced = fi, fi.Size(), fi.Size()
	}
	return f
}

// Ops returns how many operations of the given kind have been
// attempted (including the faulted one).
func (f *File) Ops(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// match arms-checks the next operation of kind op and returns the
// fault to fire, if any.
func (f *File) match(op Op) (Fault, bool) {
	f.ops[op]++
	for _, ft := range f.faults {
		if ft.Op == op && ft.N == f.ops[op] {
			return ft, true
		}
	}
	return Fault{}, false
}

// faultErr builds the returned error.
func faultErr(ft Fault, n int) error {
	if ft.Err != nil {
		return ft.Err
	}
	return fmt.Errorf("%w: %s #%d", ErrInjected, ft.Op, n)
}

// Write forwards to the backing file unless a write fault fires; a
// Short fault commits a prefix first, like a crash mid-write. After
// any write fault or unsurvived sync fault the file is wedged: every
// later write or sync fails too, modeling a process that died there.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ft, ok := f.match(OpWrite); ok {
		f.dead = true
		n, err := f.b.Write(p[:min(ft.Short, len(p))])
		f.end += int64(n)
		if err != nil {
			return n, err
		}
		return n, faultErr(ft, f.ops[OpWrite])
	}
	if f.dead {
		return 0, fmt.Errorf("%w: file wedged by earlier fault", ErrInjected)
	}
	n, err := f.b.Write(p)
	f.end += int64(n)
	return n, err
}

// Sync forwards unless a sync fault fires. A survived fault leaves the
// file writable and records the range it covered as lost.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ft, ok := f.match(OpSync); ok {
		if ft.Survive {
			f.lost = append(f.lost, [2]int64{f.synced, f.end})
		} else {
			f.dead = true
		}
		return faultErr(ft, f.ops[OpSync])
	}
	if f.dead {
		return fmt.Errorf("%w: file wedged by earlier fault", ErrInjected)
	}
	if err := f.b.Sync(); err != nil {
		return err
	}
	f.synced = f.end
	return nil
}

// Close always closes the backing file (so tests can reopen the
// path), then reports a close fault if one fires.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cerr := f.b.Close()
	if ft, ok := f.match(OpClose); ok {
		return faultErr(ft, f.ops[OpClose])
	}
	return cerr
}

// PowerCut rewrites the file at its path to what a power cut leaves:
// the prefix the last successful Sync covered, with every range a
// survived failed Sync covered reading back as zeros. The wrapper is
// wedged afterwards. A path that was removed or now names another file
// is left alone: directory entries are not modeled.
func (f *File) PowerCut() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dead = true
	if cur, err := os.Stat(f.b.Name()); err != nil || f.at == nil || !os.SameFile(f.at, cur) {
		return nil
	}
	w, err := os.OpenFile(f.b.Name(), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = w.Truncate(f.synced)
	for _, r := range f.lost {
		if hi := min(r[1], f.synced); err == nil && hi > r[0] {
			_, err = w.WriteAt(make([]byte, hi-r[0]), r[0])
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}
