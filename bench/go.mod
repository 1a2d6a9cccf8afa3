// The benchmark is a module of its own so that it builds from bench/ alone
// plus the repository it measures; the module path keeps the repro/ prefix,
// which is what lets it import repro/internal/... packages.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
