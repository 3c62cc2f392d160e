package phylo

// setSiteRepeats switches site-repeat compression, which production engines
// never turn off: with it off every pattern runs through the kernel loop, the
// reference the byte-identity property tests hold the compressed path to. The
// compressed path materializes full vectors, so turning repeats OFF needs no
// invalidation. Turning them back ON discards all class state and forces a
// bottom-up rebuild: class maintenance was suspended while off, so the version
// stamps that normally certify classes as current can no longer be trusted.
func (e *Engine) setSiteRepeats(on bool) {
	if e.repOn == on {
		return
	}
	e.repOn = on
	if on && e.lastTree != nil {
		for i := range e.repDirty {
			e.repDirty[i] = true
			e.repBuiltL[i] = -1
			e.repBuiltR[i] = -1
		}
		// A parent's classes read its children's, so the next traversal may
		// not skip clean subtrees.
		e.InvalidateAll()
	}
}

// useGeneralBodies makes the engine run the loop-form reference
// (reference_test.go) in place of the bodies NewEngine picked by category
// count: what TestCategoryKernelsMatchGeneral holds those to.
func (e *Engine) useGeneralBodies() {
	e.nvFn, e.sumFn, e.ntFn, e.accFn = e.refNewview, e.refSumTable, e.refNewton, e.refAccept
}
