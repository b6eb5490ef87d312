// Replication role state: a Service is a leader (read-write) unless flipped
// into follower mode, where every state-changing entry point — Exec scripts
// with DDL/INSERT/txn control, CreateIndex — is rejected with a redirect
// hint while queries run normally over the replica's MVCC snapshots.
// Promotion flips the role back at failover.
package server

import (
	"errors"
	"time"

	"udfdecorr/internal/repl"
)

// Role names a service's replication role.
type Role string

const (
	RoleLeader   Role = "leader"
	RoleFollower Role = "follower"
)

// ErrReadOnly marks statements rejected because the service is a read-only
// replica.
var ErrReadOnly = errors.New("read-only replica")

// ReadOnlyError is the typed form of a follower's write rejection. The
// leader address travels only in the Leader field (surfaced as the wire
// envelope's leader_hint), so clients redirect structurally; the message
// carries no address to parse.
type ReadOnlyError struct {
	// Leader is the base URL of the leader this replica follows, or "" when
	// unknown (e.g. a follower that lost its leader and is awaiting
	// promotion).
	Leader string
}

// Error implements the error interface.
func (e *ReadOnlyError) Error() string {
	return ErrReadOnly.Error() + ": writes, DDL and transactions must go to the leader"
}

// Unwrap makes errors.Is(err, ErrReadOnly) keep working.
func (e *ReadOnlyError) Unwrap() error { return ErrReadOnly }

// Role returns the service's current replication role. Services that never
// touched replication are leaders.
func (s *Service) Role() Role {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	if s.role == "" {
		return RoleLeader
	}
	return s.role
}

// SetFollower flips the service into read-only replica mode, fed by the
// follower whose progress status reports. Registers the replication gauges.
func (s *Service) SetFollower(leaderURL string, status func() repl.Status) {
	s.replMu.Lock()
	s.role = RoleFollower
	s.leaderURL = leaderURL
	s.replStatus = status
	s.replMu.Unlock()
	s.registerReplMetrics(status)
}

// Promote flips a follower to leader. It reports whether a flip happened
// (promoting a leader is a no-op). The caller must have stopped the tail
// and finished any catch-up first: after Promote, writes are accepted.
func (s *Service) Promote() bool {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.role != RoleFollower {
		return false
	}
	s.role = RoleLeader
	s.leaderURL = ""
	return true
}

// ReplStatus reports the feeding follower's replication progress; ok is
// false when the service never ran as a replica.
func (s *Service) ReplStatus() (repl.Status, bool) {
	s.replMu.RLock()
	status := s.replStatus
	s.replMu.RUnlock()
	if status == nil {
		return repl.Status{}, false
	}
	return status(), true
}

// rejectOnReplica returns the read-only error when the service is currently
// a follower, carrying the leader so clients know where to send writes.
func (s *Service) rejectOnReplica() error {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	if s.role != RoleFollower {
		return nil
	}
	return &ReadOnlyError{Leader: s.leaderURL}
}

// ApplyExclusive runs fn under the exclusive side of the DDL gate and
// invalidates the plan cache if the schema version changed — the one DDL
// path behind ExecContext's DDL scripts, CreateIndex and the follower's
// replicated DDL, so readers never see a half-applied schema change (and
// never reuse plans compiled against the previous catalog version).
func (s *Service) ApplyExclusive(fn func() error) error {
	gateStart := time.Now()
	s.ddl.Lock()
	s.metrics.ddlWait.Observe(time.Since(gateStart))
	defer s.ddl.Unlock()
	before := s.cat.Version()
	err := fn()
	if s.cat.Version() != before {
		s.cache.Purge()
	}
	return err
}

// registerReplMetrics adds the replication series to /metrics. GaugeFunc
// closures are evaluated per scrape, so they always reflect live status.
func (s *Service) registerReplMetrics(status func() repl.Status) {
	reg := s.metrics.reg
	reg.GaugeFunc("udfd_repl_lag_records", "",
		"Replication lag behind the leader's durable WAL tip, in records (-1 before the first stream response).",
		func() int64 { return status().LagRecords })
	reg.CounterFunc("udfd_repl_applied_total", "",
		"WAL records applied by the replica since bootstrap (snapshot included).",
		func() int64 { return status().AppliedRecords })
}
