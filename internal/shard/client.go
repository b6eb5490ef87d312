// The router's shard legs. Each shard is a wire.Client; a shard-side failure
// arrives as the typed *wire.RemoteError the shard sent, which the gather
// layer can compose, and a transport-level failure (shard process down,
// stream cut short) is typed here as SHARD_UNAVAILABLE.
package shard

import (
	"context"
	"errors"

	"udfdecorr/internal/wire"
)

// unavailable types a shard leg's transport error as SHARD_UNAVAILABLE;
// errors the shard itself reported pass through.
func unavailable(shard *wire.Client, err error) error {
	var re *wire.RemoteError
	if err == nil || errors.As(err, &re) {
		return err
	}
	return wire.Errorf(wire.CodeShardUnavailable, "shard %s: %v", shard.Base(), err)
}

// post sends one enveloped request to shard i.
func (r *Router) post(ctx context.Context, i int, path string, body, out any) error {
	return unavailable(r.shards[i], r.shards[i].Post(ctx, path, body, out))
}

// shardStream is one shard's open /stream cursor.
type shardStream struct {
	*wire.Cursor
	shard *wire.Client
}

// stream opens the statement's cursor on shard i, in sess's session there.
// partial selects shard-local partial-aggregate execution (the scatter-merge
// leg).
func (r *Router) stream(ctx context.Context, i int, sess *Session, sql string, partial bool) (*shardStream, error) {
	cur, err := r.shards[i].Stream(ctx, wire.Statement{Session: sess.shardIDs[i], SQL: sql, ShardPartial: partial})
	if err != nil {
		return nil, unavailable(r.shards[i], err)
	}
	return &shardStream{Cursor: cur, shard: r.shards[i]}, nil
}

// next returns the next row, or (nil, nil) once the shard's trailer arrives.
func (s *shardStream) next() ([]string, error) {
	row, err := s.Next()
	return row, unavailable(s.shard, err)
}
