// Command dynxmld serves a catalog of durable dynamic-XML documents
// over HTTP: the JSON/REST surface of internal/web in front of the
// lazy residency layer of internal/catalog. Each document is one
// journal directory under -root; documents open on first request by
// journal replay and are checkpointed and closed when the resident
// set outgrows -mem-budget or -max-open.
//
//	dynxmld -addr :8080 -root /var/lib/dynxml
//
// With -follow the daemon is a read-only replica instead: every
// document is mirrored from the leader dynxmld at that URL by journal
// shipping, queries and watches are served locally, and every mutating
// request answers 403 read_only. The mirror under -root survives kills
// and restarts and keeps serving everything at or below its advertised
// horizon.
//
//	dynxmld -addr :8081 -root /var/lib/dynxml-replica -follow http://leader:8080
//
// SIGINT/SIGTERM shut the server down gracefully: watch streams end,
// in-flight requests drain, then every resident document is
// checkpointed and closed, so the next start replays from the
// checkpoint instead of the full journal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	dynxml "repro"
	"repro/internal/catalog"
	"repro/internal/web"
)

// parseDurability maps the -durability flag: always, none, or
// interval[=dur] (default interval 100ms).
func parseDurability(s string) (dynxml.Durability, error) {
	switch {
	case s == "always":
		return dynxml.Always, nil
	case s == "none":
		return dynxml.None, nil
	case s == "interval":
		return dynxml.Interval(100 * time.Millisecond), nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return dynxml.Durability{}, fmt.Errorf("bad interval duration %q", s)
		}
		return dynxml.Interval(d), nil
	default:
		return dynxml.Durability{}, fmt.Errorf("bad -durability %q (valid: always, none, interval[=dur])", s)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		root       = flag.String("root", "", "catalog root directory, one journal dir per document (required)")
		scheme     = flag.String("scheme", dynxml.DefaultScheme, "labeling scheme for newly created documents")
		durability = flag.String("durability", "always", "journal sync mode: always, none, or interval[=dur]")
		memBudget  = flag.Int64("mem-budget", catalog.DefaultMemBudget, "resident-memory budget in estimated bytes before eviction")
		maxOpen    = flag.Int("max-open", catalog.DefaultMaxOpen, "max documents resident at once before eviction")
		timeout    = flag.Duration("timeout", web.DefaultTimeout, "per-request wall-clock timeout")
		addrFile   = flag.String("addr-file", "", "write the bound listen address to this file once serving (for scripts using port 0)")
		follow     = flag.String("follow", "", "leader base URL; serve as a read-only replica mirroring its documents")
		paged      = flag.Bool("paged", false, "keep each document's element index on paged storage under <docdir>/pages")
		pageCache  = flag.Int("page-cache", 0, "per-document page cache in 4 KiB pages with -paged (0: pagestore minimum)")
	)
	flag.Parse()
	if *root == "" {
		return errors.New("-root is required")
	}
	dur, err := parseDurability(*durability)
	if err != nil {
		return err
	}

	cat, err := catalog.Open(catalog.Config{
		Root:        *root,
		Scheme:      *scheme,
		Durability:  dur,
		MaxOpen:     *maxOpen,
		MemBudget:   *memBudget,
		FollowURL:   *follow,
		PagedLabels: *paged,
		PageCache:   *pageCache,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}

	api := web.New(web.Config{Catalog: cat, Timeout: *timeout})
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	srv.RegisterOnShutdown(api.EndStreams)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	if *follow != "" {
		log.Printf("dynxmld: serving %s as read-only replica of %s (mirror %s)", ln.Addr(), *follow, *root)
	} else {
		log.Printf("dynxmld: serving %s (root %s, scheme %s, durability %s, budget %d bytes / %d docs)",
			ln.Addr(), *root, *scheme, dur, *memBudget, *maxOpen)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("dynxmld: %s, shutting down", s)
	case err := <-errCh:
		_ = cat.Close()
		return fmt.Errorf("serve: %w", err)
	}

	// Drain HTTP first — in-flight edits finish and are acknowledged —
	// then checkpoint and close every resident document.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("dynxmld: HTTP drain: %v", err)
	}
	if err := cat.Close(); err != nil {
		return fmt.Errorf("closing catalog: %w", err)
	}
	log.Print("dynxmld: stopped cleanly")
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if err := run(); err != nil {
		log.Fatalf("dynxmld: %v", err)
	}
}
