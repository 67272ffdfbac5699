// Package errcheck is a labelvet fixture: dropped error results.
package errcheck

import (
	"errors"
	"fmt"
	"os"
	"strings"
)

func mayFail() error { return errors.New("boom") }

func twoResults() (int, error) { return 0, errors.New("boom") }

type closer struct{}

func (closer) Close() error { return nil }

func dropped(c closer) {
	mayFail()      // want `error result of .*errcheck\.mayFail is dropped`
	twoResults()   // want `error result of .*errcheck\.twoResults is dropped`
	c.Close()      // want `error result of .*errcheck\.closer.Close is dropped`
	go mayFail()   // want `error result of .*errcheck\.mayFail is dropped`
	fmt.Errorf("") // want `error result of fmt.Errorf is dropped`
}

// A crash-safe log's API shape: multi-result functions whose trailing
// error reports data loss (Recover) or a failed open. Dropping these
// is exactly the bug class the crash-safety work exists to prevent.

type record struct{}

type store struct{}

func (*store) Sync() error { return nil }

func recoverStore(path string) ([]record, int64, error) { return nil, 0, errors.New("torn") }

func openStore(path string) (*store, error) { return nil, errors.New("boom") }

func droppedStoreErrors() {
	recoverStore("labels.log")      // want `error result of .*errcheck\.recoverStore is dropped`
	openStore("labels.log")         // want `error result of .*errcheck\.openStore is dropped`
	s, _ := openStore("labels.log") // explicit discard is accepted
	s.Sync()                        // want `error result of .*errcheck\.store\.Sync is dropped`
}

func handledStoreErrors() error {
	recs, truncated, err := recoverStore("labels.log")
	if err != nil {
		return err
	}
	_ = recs
	_ = truncated
	s, err := openStore("labels.log")
	if err != nil {
		return err
	}
	return s.Sync()
}

func handled(c closer) error {
	_ = mayFail() // explicit discard is accepted
	if err := mayFail(); err != nil {
		return err
	}
	defer c.Close() // deferred Close is established idiom
	fmt.Println("to stdout")
	fmt.Fprintln(os.Stderr, "to stderr")
	var sb strings.Builder
	fmt.Fprintf(&sb, "in-memory sink")
	return nil
}
