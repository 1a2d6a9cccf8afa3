package core

// IndexesBuilt reports whether the plan's base index and its protection
// columns have been built, for the tests that reach a plan through other
// packages.
func IndexesBuilt(p *Plan) (base, prot bool) { return p.index != nil, p.protCols != nil }
