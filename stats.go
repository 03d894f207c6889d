package ccs

import (
	"fmt"
	"strings"
)

// Stats schema shared by every front end: the CLI's -stats flags, the
// server's GET /v1/stats, and programmatic callers all render or serve
// the same structures, so "how warm is the cache" reads identically
// everywhere.

// StoreStats is a snapshot of the persistent artifact store's counters
// (internal/store), present only on store-backed Checkers.
type StoreStats struct {
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Corrupt     int64 `json:"corrupt"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	Evictions   int64 `json:"evictions"`
}

// CheckerStats is a snapshot of a Checker's caches.
type CheckerStats struct {
	// Processes counts the in-memory artifact cache's records: one per
	// structurally distinct process a caller supplied, plus one per
	// quotient or saturated form the engine derived from them.
	Processes int `json:"processes"`
	// Store is the persistent tier's counters; nil for a memory-only
	// Checker.
	Store *StoreStats `json:"store,omitempty"`
}

// ServerStats is the body of the server's GET /v1/stats.
type ServerStats struct {
	Schema int `json:"schema"`
	// Version is the serving binary's build version ("dev" when not
	// stamped at link time).
	Version string `json:"version,omitempty"`
	// Queries counts requests answered (across /v1/check, /v1/batch and
	// /v1/network); Failed is the subset whose report carries an error.
	Queries int64 `json:"queries"`
	Failed  int64 `json:"failed"`
	// Rejected counts requests turned away by admission control (429).
	Rejected int64 `json:"rejected"`
	// InFlight is the number of requests currently being answered;
	// MaxInFlight is the admission-control bound.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// Workers is the per-batch worker-pool size.
	Workers int `json:"workers"`
	// Checker is the underlying cache state.
	Checker CheckerStats `json:"checker"`
}

// Stats snapshots the Checker's cache counters.
func (c *Checker) Stats() CheckerStats {
	s := CheckerStats{Processes: c.e.Processes()}
	if st, ok := c.e.StoreStats(); ok {
		s.Store = &StoreStats{
			Entries:     st.Entries,
			Bytes:       st.Bytes,
			Hits:        st.Hits,
			Misses:      st.Misses,
			Corrupt:     st.Corrupt,
			Writes:      st.Writes,
			WriteErrors: st.WriteErrors,
			Evictions:   st.Evictions,
		}
	}
	return s
}

// Render formats the stats as the one-line cache summary every -stats
// front end prints.
func (s CheckerStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache: %d process records", s.Processes)
	if st := s.Store; st != nil {
		fmt.Fprintf(&b, "; store: %d entries (%d bytes), %d hits / %d misses, %d writes",
			st.Entries, st.Bytes, st.Hits, st.Misses, st.Writes)
		if st.Evictions > 0 {
			fmt.Fprintf(&b, ", %d evictions", st.Evictions)
		}
		if st.Corrupt > 0 {
			fmt.Fprintf(&b, ", %d corrupt", st.Corrupt)
		}
		if st.WriteErrors > 0 {
			fmt.Fprintf(&b, ", %d write errors", st.WriteErrors)
		}
	}
	return b.String()
}
