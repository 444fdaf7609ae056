// The benchmark is a module of its own so that it builds with its own build
// file; the import path stays under repro/ so the engine's internal packages
// remain importable, and the replace points at the checkout it sits in.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
