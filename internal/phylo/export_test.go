package phylo

// useGeneralBodies makes the engine run the loop-form reference
// (reference_test.go) in place of the bodies NewEngine picked by category
// count: what TestCategoryKernelsMatchGeneral holds those to.
func (e *Engine) useGeneralBodies() {
	e.nvFn, e.sumFn, e.ntFn, e.accFn = e.refNewview, e.refSumTable, e.refNewton, e.refAccept
}
