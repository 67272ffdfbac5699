// Package faultfs wraps a file with deterministic fault injection so
// crash-recovery is tested by construction, not luck. A File counts
// write, sync and close operations and fires configured faults at
// exact operation indexes: a write error, a *short* write (the torn
// tail a power cut leaves), or a sync failure. Everything up to the
// fault reaches the real file, so reopening the path afterwards sees
// exactly what a crashed process would have left on disk.
//
// File satisfies journal.File structurally; the kill matrices hand
// faultfs.Wrap to journal.Config.WrapFile.
package faultfs

import (
	"errors"
	"fmt"
	"io"
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
	// Err overrides the returned error (default ErrInjected).
	Err error
}

// Backing is what File wraps — the same contract journal.File
// demands, so a real *os.File fits.
type Backing interface {
	io.Writer
	Sync() error
	Close() error
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
	fired  []Fault
	dead   bool // a fired write/sync fault wedges the file
}

// Wrap returns f with the given faults armed.
func Wrap(b Backing, faults ...Fault) *File {
	return &File{b: b, faults: append([]Fault(nil), faults...)}
}

// Fired returns the faults that have fired, in firing order.
func (f *File) Fired() []Fault {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Fault(nil), f.fired...)
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
			f.fired = append(f.fired, ft)
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
// any write or sync fault the file is wedged: every later write or
// sync fails too, modeling a process that died at that point.
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ft, ok := f.match(OpWrite); ok {
		n := 0
		if ft.Short > 0 {
			short := ft.Short
			if short > len(p) {
				short = len(p)
			}
			var err error
			n, err = f.b.Write(p[:short])
			if err != nil {
				return n, err
			}
		}
		f.dead = true
		return n, faultErr(ft, f.ops[OpWrite])
	}
	if f.dead {
		return 0, fmt.Errorf("%w: file wedged by earlier fault", ErrInjected)
	}
	return f.b.Write(p)
}

// Sync forwards unless a sync fault fires.
func (f *File) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ft, ok := f.match(OpSync); ok {
		f.dead = true
		return faultErr(ft, f.ops[OpSync])
	}
	if f.dead {
		return fmt.Errorf("%w: file wedged by earlier fault", ErrInjected)
	}
	return f.b.Sync()
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
