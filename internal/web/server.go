// Package web is the HTTP surface over a document catalog: a
// JSON/REST API exposing named dynxml documents — open, query,
// explain, edit, batch-edit, sync, checkpoint, close — plus health
// and metrics introspection. Every route runs through a middleware
// stack (request id, per-route metrics, wall-clock timeout, panic
// recovery) and pins its document through catalog.Acquire, so
// eviction and lazy replay are invisible to clients.
//
// The route surface:
//
//	POST /v1/docs/{name}/open        {xml?, scheme?} — create (xml set) or open
//	GET  /v1/docs                    list documents and residency
//	GET  /v1/docs/{name}             per-document stats incl. journal counters
//	GET  /v1/docs/{name}/xml         serialized document
//	POST /v1/docs/{name}/query      {path} → {count, ids}
//	POST /v1/docs/{name}/explain    {path} → {explain}
//	POST /v1/docs/{name}/edit       one edit (insert-element | insert-tree | delete)
//	POST /v1/docs/{name}/batch      {edits: [...]} applied atomically per chunk
//	POST /v1/docs/{name}/sync       force durability point
//	POST /v1/docs/{name}/checkpoint bound future replay time
//	POST /v1/docs/{name}/close      evict the resident handle (journal stays)
//	GET  /v1/docs/{name}/journal    binary ship chunk for followers (?from, ?limit, ?waitms)
//	GET  /v1/docs/{name}/horizon    durable horizon; read-your-writes wait (?min, ?waitms)
//	GET  /v1/docs/{name}/watch      SSE stream of change notifications (?path)
//	GET  /healthz                   liveness
//	GET  /debug/vars                process metrics registry as JSON
package web

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/catalog"
)

// DefaultTimeout bounds a request's wall time when Config.Timeout is
// zero.
const DefaultTimeout = 30 * time.Second

// Config parameterizes New.
type Config struct {
	// Catalog is the document residency layer the server fronts.
	// Required.
	Catalog *catalog.Catalog
	// Timeout is the per-request wall bound (0: DefaultTimeout,
	// negative: no timeout). Requests past it get a JSON 504 that closes
	// their connection; the abandoned handler keeps running against a
	// discarded buffer.
	Timeout time.Duration
}

// Server is the HTTP API over one catalog. It is an http.Handler.
type Server struct {
	cat     *catalog.Catalog
	timeout time.Duration
	handler http.Handler

	endStreams sync.Once
	streamsEnd chan struct{} // closed by EndStreams
}

// New wires the route table and middleware stack.
func New(cfg Config) *Server {
	s := &Server{cat: cfg.Catalog, timeout: cfg.Timeout, streamsEnd: make(chan struct{})}
	if s.timeout == 0 {
		s.timeout = DefaultTimeout
	}
	mux := http.NewServeMux()
	route(mux, "POST /v1/docs/{name}/open", "open", s.timeout, s.handleOpen)
	route(mux, "GET /v1/docs", "list", s.timeout, s.handleList)
	route(mux, "GET /v1/docs/{name}", "stats", s.timeout, s.handleStats)
	route(mux, "GET /v1/docs/{name}/xml", "xml", s.timeout, s.handleXML)
	route(mux, "POST /v1/docs/{name}/query", "query", s.timeout, s.handleQuery)
	route(mux, "POST /v1/docs/{name}/explain", "explain", s.timeout, s.handleExplain)
	route(mux, "POST /v1/docs/{name}/edit", "edit", s.timeout, s.handleEdit)
	route(mux, "POST /v1/docs/{name}/batch", "batch", s.timeout, s.handleBatch)
	route(mux, "POST /v1/docs/{name}/sync", "sync", s.timeout, s.handleSync)
	route(mux, "POST /v1/docs/{name}/checkpoint", "checkpoint", s.timeout, s.handleCheckpoint)
	route(mux, "POST /v1/docs/{name}/close", "close", s.timeout, s.handleClose)
	// The replication sync surface streams or long-polls, so it runs
	// without the buffering timeout layer, whose buffer would defeat SSE
	// flushing and kill parked long-polls; its handlers bound their own
	// waits and stop on request-context cancellation.
	route(mux, "GET /v1/docs/{name}/journal", "journal", -1, s.handleJournal)
	route(mux, "GET /v1/docs/{name}/horizon", "horizon", -1, s.handleHorizon)
	route(mux, "GET /v1/docs/{name}/watch", "watch", -1, s.handleWatch)
	// Introspection routes skip the timeout and per-route metrics:
	// they must answer even when the API is saturated, and scraping
	// them should not perturb what they report.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.handler = withRequestID(mux)
	return s
}

// route registers one API route under the middleware stack, with a
// timeout layer when timeout is positive. Recovery sits innermost, so a
// panic's partial reply is discarded with the buffer; metrics sit
// outermost, so a timed-out request is recorded as its client saw it —
// a 504.
func route(mux *http.ServeMux, pattern, name string, timeout time.Duration, h http.HandlerFunc) {
	mux.Handle(pattern, withMetrics(newRouteMetrics(name), withTimeout(timeout, withRecover(h))))
}

// EndStreams ends every watch stream, open or opened later.
// http.Server.Shutdown waits for handlers but cancels none, and a watch
// stream never returns on its own: register EndStreams with the
// server's RegisterOnShutdown so a drain does not wait for it.
func (s *Server) EndStreams() { s.endStreams.Do(func() { close(s.streamsEnd) }) }

// ServeHTTP dispatches through the middleware stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}
