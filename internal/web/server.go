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
	// negative: no timeout). Requests past it get a JSON 504; the
	// abandoned handler keeps running against a discarded buffer.
	Timeout time.Duration
}

// Server is the HTTP API over one catalog. It is an http.Handler.
type Server struct {
	cat     *catalog.Catalog
	timeout time.Duration
	handler http.Handler
}

// New wires the route table and middleware stack.
func New(cfg Config) *Server {
	s := &Server{cat: cfg.Catalog, timeout: cfg.Timeout}
	if s.timeout == 0 {
		s.timeout = DefaultTimeout
	}
	mux := http.NewServeMux()
	s.route(mux, "POST /v1/docs/{name}/open", "open", s.handleOpen)
	s.route(mux, "GET /v1/docs", "list", s.handleList)
	s.route(mux, "GET /v1/docs/{name}", "stats", s.handleStats)
	s.route(mux, "GET /v1/docs/{name}/xml", "xml", s.handleXML)
	s.route(mux, "POST /v1/docs/{name}/query", "query", s.handleQuery)
	s.route(mux, "POST /v1/docs/{name}/explain", "explain", s.handleExplain)
	s.route(mux, "POST /v1/docs/{name}/edit", "edit", s.handleEdit)
	s.route(mux, "POST /v1/docs/{name}/batch", "batch", s.handleBatch)
	s.route(mux, "POST /v1/docs/{name}/sync", "sync", s.handleSync)
	s.route(mux, "POST /v1/docs/{name}/checkpoint", "checkpoint", s.handleCheckpoint)
	s.route(mux, "POST /v1/docs/{name}/close", "close", s.handleClose)
	// The replication sync surface streams or long-polls, so it runs
	// without the buffering timeout middleware and bounds its own waits.
	s.routeStream(mux, "GET /v1/docs/{name}/journal", "journal", s.handleJournal)
	s.routeStream(mux, "GET /v1/docs/{name}/horizon", "horizon", s.handleHorizon)
	s.routeStream(mux, "GET /v1/docs/{name}/watch", "watch", s.handleWatch)
	// Introspection routes skip the timeout and per-route metrics:
	// they must answer even when the API is saturated, and scraping
	// them should not perturb what they report.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.handler = withRequestID(mux)
	return s
}

// route registers one API route under the full middleware stack.
// Recovery sits innermost so it runs on the timeout's handler
// goroutine; metrics sit outermost so a timed-out request is recorded
// as its client saw it — a 504.
func (s *Server) route(mux *http.ServeMux, pattern, name string, h http.HandlerFunc) {
	mux.Handle(pattern, withMetrics(newRouteMetrics(name), withTimeout(s.timeout, withRecover(h))))
}

// routeStream registers a streaming or long-polling route: metrics and
// recovery, but no timeout layer — its buffered response would defeat
// SSE flushing and kill parked long-polls. Stream handlers bound their
// own waits and stop on request-context cancellation.
func (s *Server) routeStream(mux *http.ServeMux, pattern, name string, h http.HandlerFunc) {
	mux.Handle(pattern, withMetrics(newRouteMetrics(name), withRecover(h)))
}

// ServeHTTP dispatches through the middleware stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}
