package spectre

import (
	"fmt"

	"github.com/spectrecep/spectre/internal/core"
)

// Sentinel errors. Compare with errors.Is: structured errors in this
// package (QueryError, OverloadError) wrap or match them, so callers can
// branch on the condition without depending on the concrete type.
var (
	// ErrAlreadyRan is returned when Engine.Run is called twice.
	ErrAlreadyRan = core.ErrAlreadyRan
	// ErrRuntimeClosed is returned by Submit/Run after Runtime.Close or
	// Runtime.Shutdown.
	ErrRuntimeClosed = core.ErrRuntimeClosed
	// ErrHandleClosed is returned by Handle.Feed/TryFeed/FeedBatch after
	// Handle.Close (or after the handle's submission context was
	// cancelled).
	ErrHandleClosed = core.ErrHandleClosed
	// ErrOverloaded is matched (errors.Is) by the *OverloadError that
	// Handle.TryFeed returns when the target shard's unread tail is full.
	ErrOverloaded = core.ErrOverloaded
	// ErrShuttingDown is returned by Submit when it loses the race with a
	// concurrent Runtime.Close/Shutdown: the query was compiled but never
	// attached, and no resources leak. It matches ErrRuntimeClosed with
	// errors.Is.
	ErrShuttingDown = core.ErrShuttingDown
)

// OverloadError is TryFeed's admission rejection: the target shard's
// unread tail — the kept events admitted to its arena that its splitter
// has not read yet — was at capacity. It
// matches ErrOverloaded with errors.Is and carries the query name, the
// shard index and the tail's length at rejection time — the inputs a
// load-shedding policy needs. Queries
// submitted with WithShedding shed at the intake instead and return
// nil, so they only produce this error on the rare closed-handle race.
type OverloadError = core.OverloadError

// QueryError wraps a per-query failure — compilation, validation or
// submission — with the query's name. It unwraps to the underlying cause,
// so errors.Is against sentinels and parser errors keeps working.
type QueryError struct {
	// Query is the query's name ("" when the query never compiled far
	// enough to have one).
	Query string
	// Err is the underlying cause.
	Err error
}

func (e *QueryError) Error() string {
	if e.Query == "" {
		return fmt.Sprintf("spectre: query: %v", e.Err)
	}
	return fmt.Sprintf("spectre: query %q: %v", e.Query, e.Err)
}

// Unwrap returns the underlying cause for errors.Is / errors.As.
func (e *QueryError) Unwrap() error { return e.Err }

// queryErr wraps err into a *QueryError carrying the query's name.
func queryErr(q *Query, err error) error {
	if err == nil {
		return nil
	}
	name := ""
	if q != nil {
		name = q.Name
	}
	return &QueryError{Query: name, Err: err}
}
