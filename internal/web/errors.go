package web

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	dynxml "repro"
	"repro/internal/catalog"
)

// Stable machine-readable error codes, carried in every error
// envelope's "code" field. Clients branch on these, never on the
// human-readable message text.
const (
	CodeNotFound      = "not_found"
	CodeExists        = "exists"
	CodeBadName       = "bad_name"
	CodeUnknownScheme = "unknown_scheme"
	CodeUnavailable   = "unavailable"
	CodeReadOnly      = "read_only"
	CodeLabelTooLong  = "label_too_long"
	CodeBadRequest    = "bad_request"
	CodeTimeout       = "timeout"
	CodeInternal      = "internal"
)

// errorBody is the JSON envelope every non-2xx response carries. Code
// is the stable machine-readable classification; the request id lets a
// client quote the exact server-side request in a bug report and
// matches the X-Request-ID response header.
type errorBody struct {
	Error     string `json:"error"`
	Code      string `json:"code"`
	RequestID string `json:"request_id"`
}

// writeError renders a message as the JSON error envelope with the
// given status and code.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Code: code, RequestID: RequestID(r.Context())})
}

// mapError translates a catalog or document error into an HTTP status,
// a stable error code and a client-facing message. Unrecognized errors
// are reported as 400: every error the document layer returns on a
// live handle is induced by the request (bad ids, malformed paths,
// rejected edits) — real server faults surface as panics and take the
// 500 path instead.
func mapError(err error) (int, string, string) {
	switch {
	case errors.Is(err, catalog.ErrNotFound), errors.Is(err, dynxml.ErrNotFound):
		return http.StatusNotFound, CodeNotFound, err.Error()
	case errors.Is(err, catalog.ErrExists):
		return http.StatusConflict, CodeExists, err.Error()
	case errors.Is(err, catalog.ErrBadName):
		return http.StatusBadRequest, CodeBadName, err.Error()
	case errors.Is(err, dynxml.ErrUnknownScheme):
		return http.StatusBadRequest, CodeUnknownScheme,
			fmt.Sprintf("%s (valid schemes: %s)", err, strings.Join(dynxml.Schemes(), ", "))
	case errors.Is(err, dynxml.ErrReadOnly):
		// A follower serves reads only; writes belong on the leader.
		return http.StatusForbidden, CodeReadOnly, err.Error()
	case errors.Is(err, dynxml.ErrLabelTooLong):
		// The edit is well-formed but this document's index cannot key
		// the label it would need; the document is unchanged and other
		// inserts still work.
		return http.StatusUnprocessableEntity, CodeLabelTooLong, err.Error()
	case errors.Is(err, dynxml.ErrClosed), errors.Is(err, catalog.ErrCatalogClosed):
		// The handle was evicted or the server is draining; the client
		// can retry and the catalog will replay the document.
		return http.StatusServiceUnavailable, CodeUnavailable, err.Error()
	default:
		return http.StatusBadRequest, CodeBadRequest, err.Error()
	}
}

// fail maps err and writes the error envelope.
func fail(w http.ResponseWriter, r *http.Request, err error) {
	status, code, msg := mapError(err)
	writeError(w, r, status, code, msg)
}
