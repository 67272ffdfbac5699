package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	dynxml "repro"
	"repro/client"
	"repro/internal/catalog"
	"repro/internal/web"
)

// server is the real serving stack in-process, wired the way
// cmd/dynxmld wires it: catalog.Open, web.New, an http.Server on a
// loopback listener. Clients reach it over real TCP.
type server struct {
	cat  *catalog.Catalog
	srv  *http.Server
	url  string
	done chan error
}

func startServer(root string, dur dynxml.Durability, maxOpen int) (*server, error) {
	cat, err := catalog.Open(catalog.Config{Root: root, Durability: dur, MaxOpen: maxOpen})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = cat.Close()
		return nil, err
	}
	s := &server{
		cat:  cat,
		srv:  &http.Server{Handler: web.New(web.Config{Catalog: cat}), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains HTTP, waits for the serve goroutine, then checkpoints
// and closes every resident document.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := s.cat.Close(); err == nil {
		err = cerr
	}
	return err
}

func docName(i int) string { return fmt.Sprintf("doc-%02d", i) }

// dial returns a typed client with a connection pool of its own, so
// that n clients are n connections.
func (s *server) dial() (*client.Client, *http.Transport, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	c, err := client.Dial(s.url, client.WithHTTPClient(&http.Client{Transport: tr, Timeout: client.DefaultTimeout}))
	if err != nil {
		return nil, nil, err
	}
	return c, tr, nil
}
