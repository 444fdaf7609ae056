package transport

// The package's external tests drive whole clusters, which import this
// package, so they reach its test hook and mesh helper through here.

// PoisonRecycled sets the use-after-recycle hook and returns a func that
// restores its previous setting.
func PoisonRecycled(on bool) (restore func()) {
	prev := poisonRecycled.Swap(on)
	return func() { poisonRecycled.Store(prev) }
}

// Poisoned is how many handed-back blocks the hook has filled with NaN.
func Poisoned() int64 { return poisoned.Load() }

// LoopbackMesh is loopbackMesh.
var LoopbackMesh = loopbackMesh
