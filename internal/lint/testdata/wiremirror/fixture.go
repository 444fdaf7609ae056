// Package fixture mirrors the real internal/comm/wire frame-kind enum —
// the constant names below are asserted (by TestWireMirrorMatchesRealKinds)
// to match wire.go exactly, so adding a kind to the codec forces this
// fixture to grow too. The dispatch switch covers every kind, so the
// wire-exhaustive analyzer reports nothing here.
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
)

var errBadKind = errors.New("bad kind")

// dispatch covers every frame kind the codec defines.
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
