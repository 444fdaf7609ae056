// Package fixture is the regression case the wire-exhaustive rule exists
// for: the full real frame-kind set plus one NEW kind (tFutureKind) whose
// switch arm was forgotten. The analyzer must report the missing name.
package fixture

import "errors"

const (
	tNil byte = iota
	tIntVec
	tFloatVec
	tKVBlock
	tQBlock
	tOBlock
	tHello
	tHeartbeat
	tPrefillCmd
	tDecodeCmd
	tDropCmd
	tDetachCmd
	tAdoptCmd
	tReleasePrefixCmd
	tCapQueryCmd
	tStatsCmd
	tShutdownCmd
	tPrefillResult
	tDecodeResult
	tAck
	tDetachResult
	tCapResult
	tStatsResult
	tFailureNote
	tFutureKind // the newly added kind nobody wired up
)

var errBadKind = errors.New("bad kind")

// dispatch was not updated for tFutureKind and has no default.
func dispatch(k byte) error {
	switch k {
	case tNil, tIntVec, tFloatVec:
		return nil
	case tKVBlock, tQBlock, tOBlock:
		return nil
	case tHello, tHeartbeat:
		return nil
	case tPrefillCmd, tDecodeCmd, tDropCmd, tDetachCmd, tAdoptCmd,
		tReleasePrefixCmd, tCapQueryCmd, tStatsCmd, tShutdownCmd:
		return nil
	case tPrefillResult, tDecodeResult, tAck, tDetachResult, tCapResult,
		tStatsResult, tFailureNote:
		return nil
	}
	return errBadKind
}
