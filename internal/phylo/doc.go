// Package phylo is a self-contained maximum-likelihood phylogenetics library:
// the application substrate of the reproduction, standing in for RAxML-VI-HPC.
//
// It implements the pieces of RAxML that the paper's runtime system schedules:
//
//   - alignments of DNA sequences, with site-pattern compression and
//     per-pattern weights (42 taxa x 1167 nucleotides compresses to the 228
//     patterns the paper's parallel loops iterate over);
//   - reversible nucleotide substitution models (Jukes-Cantor, HKY85 and GTR,
//     the latter two through an eigendecomposition of the rate matrix; every
//     model exposes its decomposition as Spectrum) with optional
//     discrete-Gamma rate heterogeneity;
//   - the three likelihood kernels the paper off-loads to SPEs: Newview
//     (conditional likelihood vectors via Felsenstein pruning, in both
//     orientations — see "One vector kernel" below), Evaluate (the
//     log-likelihood at a branch) and Makenewz (Newton-Raphson branch length
//     optimization);
//   - a hill-climbing tree search (randomized stepwise addition followed by
//     nearest-neighbour-interchange rounds), multiple inferences and
//     non-parametric bootstrapping — as an analysis of independent tasks
//     (TaskID: inference i or bootstrap j) with exactly one task body, RunTask
//     (seed derivation, the bootstrap replicate, NewEngine, SearchContext), and
//     one assembly step, AssembleAnalysis; RunAnalysis is the serial driver
//     over the two and package native the parallel one. A replicate holds
//     only the patterns its resample drew, with their counts, in original
//     order (PatternAlignment.WithWeights): an undrawn pattern adds ±0 to
//     every sum over patterns, so dropping it before the engine is built
//     moves no bit (replicate_test.go) and sizes the replicate's engine,
//     kernels and memory by the ~2/3 that stay — RAxML's practice;
//   - a sequence simulator used to generate synthetic alignments for tests,
//     examples and benchmarks.
//
// Every per-pattern loop is expressed through a pluggable ParallelFor
// executor, which is how the native runtime in package native work-shares the
// loops across workers — the Go analogue of the paper's loop-level
// parallelism across SPEs.
//
// The kernels are engineered to be allocation-free in steady state: each
// node's flattened probability matrices sit in the node's slot of one flat
// block, tagged by the branch length they were filled for and refilled only
// when the length differs (transCache, transcache.go), and feed
// stride-indexed, fully unrolled loop bodies that are created once per engine
// and fed engine-owned argument blocks. Every slot handed out equals a fresh
// fill from the model bit for bit (transcache_test.go). The model and rates
// are read when the engine is built; an engine is never re-pointed at others.
//
// # One vector kernel
//
// As in RAxML, one newview serves both orientations of a conditional vector.
// Its loop body multiplies two sides per pattern, category and state; a side
// is either a conditional vector seen through flattened matrices (four row
// products) or one row of a lookup table. The set-ups:
//
//   - down[n], Newview: both sides are n's children — an inner child's down
//     vector through P(child.Length), or a tip child's table (downSide);
//   - out[v], computeOutOne: the left side is v's sibling, set up the same
//     way; the right side is everything outside the parent u's subtree —
//     out[u] folded down u's edge, Σ_j out[u][j]·P_u[j][s], which is the
//     kernel's row product against the TRANSPOSE of P_u (written into an
//     engine scratch per call; the same multiplications added in the same
//     order, so not a bit differs from a loop written for columns) — or, when
//     u is the root, a table side whose single row is the root prior.
//
// KernelStats counts the two apart (NewviewCalls, OutviewCalls) because the
// partial traversals bound them separately. An engine has one or four rate
// categories, and every per-pattern loop one body per count. One category,
// the single-rate search, runs newviewBody1: no category loop, and both
// sides' matrices or tip tables held in fixed-size arrays. Four, the Gamma4
// search, runs newviewBody4, which picks a loop once per call by its sides'
// kinds — newviewTable4 for a table and an inner side in either order,
// newviewInner4 for two inner sides, newviewTips4 for two tables — each with
// the count and stride as constants. All add the same terms in the same order
// and rescale through the one rare arm, rescale;
// TestCategoryKernelsMatchGeneral holds them to a loop-form reference written
// from the math (reference_test.go).
//
// # Makenewz
//
// Makenewz is RAxML's two loops. The first Newton pass of an edge visit
// (firstPass) also moves down[v] and out[v] into the model's eigenbasis
// (sumTableBody1 and sumTableBody4, RAxML's sumGAMMA), where
// P(b) = V·diag(exp(λ·r·b))·V⁻¹ is diagonal, each share storing the rows it is
// about to read
//
//	A[i,r,k] = (Σ_s out[s]·V[s][k]) · (Σ_t V⁻¹[k][t]·down[t])
//
// next to the per-pattern log scaler. Every Newton iterate then costs a dozen
// multiply-adds per pattern and category (newtonPass over newtonBody1 or
// newtonBody4, RAxML's coreGTRGAMMA): Σ A·e, Σ A·λr·e and Σ A·(λr)²·e with
// e = exp(λ_k·r·b), and no logarithm: only a length Newton moved gets an
// acceptance pass (acceptPass over acceptBody1 or acceptBody4), the
// likelihood at the old and the new length, one ln2 per pattern. The
// formulation this replaced — a P(b) mat-vec per pattern, from
// Model.Transition alone — is the test-only reference in likelihood_test.go.
//
// # Incremental evaluation
//
// Likelihood evaluation is incremental (incremental.go): the Engine tracks
// which conditional vectors each tree edit staled and its traversals
// recompute only those, RAxML's partial-traversal scheme. The contract for
// callers that mutate a bound tree directly:
//
//   - after changing v.Length, call InvalidateEdge(v);
//   - after reassigning the children of n among nodes that were already
//     inside n.Parent's subtree (an NNIMove.Apply around edge n does exactly
//     that), call InvalidateNode(n);
//   - after any other mutation — a subtree grafted from elsewhere, or one
//     you cannot describe edge by edge — call InvalidateAll (or Refresh,
//     which also recomputes immediately). Both are always safe.
//
// The invalidations are path-exact. The outer vector of w reads the down
// vector and length of w's sibling and the outer vector and length of w's
// parent — nothing inside w's subtree, and not w.Length — so a change at the
// edge above x stales the down vectors of x's strict ancestors and every
// outer vector EXCEPT those on the root-to-x path (for InvalidateNode(n):
// root-to-n.Parent), which stay valid and are not recomputed. Traversals
// settle only what a read needs: optimizing one edge recomputes the stale
// part of its root path and the sibling subtrees that part reads, and leaves
// the dirty ancestors to the next LogLikelihood.
//
// OptimizeBranch, OptimizeAllBranches, OptimizeLocal and the search
// invalidate their own updates; plain read-only evaluation needs nothing.
// Because every conditional vector is a deterministic function of its
// inputs, incremental results are byte-identical to a from-scratch Refresh
// (asserted exactly by the property tests in incremental_test.go, down to
// every vector the engine claims is current).
// OptimizeLocal re-optimizes only the branches around a rearranged edge at
// about one down-vector and one out-vector newview per branch, plus one settle
// of the root path for the likelihood it returns, which is what makes
// per-candidate NNI cost independent of taxon count.
//
// # CLV storage layout
//
// All conditional likelihood vectors live in flat engine-owned blocks —
// downward CLVs and scalers, outward CLVs and scalers — indexed by node ID: a
// structure-of-arrays layout instead of the former per-node slice-of-slices.
// The layout contract:
//
//   - a node's vector occupies [id*vecLen, (id+1)*vecLen) of its block, where
//     vecLen = nPat * stride and stride = nCat * NumStates; scaler vectors
//     occupy [id*nPat, (id+1)*nPat);
//   - within a vector the order is pattern-major, category-interleaved:
//     element (pattern i, category r, state s) sits at i*stride + r*NumStates + s;
//   - accessors (downVec etc.) hand out full-capacity three-index subslices,
//     so kernel-side reslicing keeps bounds-check elimination intact (verified
//     with -gcflags=-d=ssa/check_bce: the unrolled 4-state bodies carry one
//     slice-bound check per capped subslice and no per-element checks);
//   - every per-node block (these four, the transition matrices, the repeat
//     classes, the dirty marks and epochs) is sized once, by NewEngine, for
//     the 2·NumTaxa − 1 nodes of a binary tree over the alignment; nothing
//     grows afterwards, and bindTree refuses a tree of another node count.
//
// Tips have no vectors. No kernel reads a tip's 0/1 indicator vector: for the
// vector kernel a tip's transition matrix is expanded once per call into an
// nCat x 16 x 4 lookup table (fillTipTable, each set's row one add from a
// smaller set's), so the four dot products collapse to a single table-row read
// indexed by the tip's 4-bit observed state set — RAxML's tip-case
// specialization — and the sum table of a tip edge reads a constant 16-row
// table of V⁻¹ column sums (tipInv).
//
// # Site repeats
//
// Site-repeat compression (siterepeats.go, always on) exploits that alignment
// patterns identical across every tip below a
// node have bit-identical CLVs at that node regardless of branch lengths:
// only one representative per repeat class runs the kernel, the rest are
// copies. The invalidation rule extends the incremental contract above —
// repeat classes depend only on subtree COMPOSITION, never on branch lengths:
//
//   - InvalidateEdge leaves class state untouched (lengths changed, classes
//     cannot have);
//   - InvalidateNode and InvalidateAll mark the affected nodes repeat-dirty,
//     and a version-stamped check (newviewRepeats) rebuilds classes only for
//     nodes whose children's identity or class version actually changed.
//
// Compressed evaluation is byte-identical to running every pattern through
// the kernel, which only the tests can make an engine do (property-tested in
// siterepeats_test.go across models, rate categories and switching
// mid-sequence).
//
// # Loop-level parallelism
//
// The engine has one parallel grain, the per-pattern loop, and every one of
// them is offered to the installed ParallelFor (the paper's LLP): newview
// (down and out vectors alike), evaluate, the Newton passes over the sum
// table (the first one building it) and the acceptance pass — the passes were
// serial until a profile of a lone Gamma4 search put a third of its time
// there, and a helper that shared only the other loops spent the gain moving
// its half of the table back and forth. Traversals and the NNI sweep are
// serial. A loop is offered only when it is long enough for two halves to
// beat one whole (loopCrossover, in values: trips × categories × states, read
// off a recorded curve); below that the executor never hears of it.
//
// Results are byte-identical under any executor and any partition. The
// vector loops write each pattern's own slots from settled inputs. The
// reductions — evaluate's log-likelihood, the Newton and acceptance sums —
// are defined as the per-pattern terms added in ascending pattern order: the
// share that starts at pattern 0 adds its terms as it computes them (an
// un-split loop is that share alone, so the serial path never touches a
// buffer), every other share stores its terms, and the engine's goroutine
// adds those behind the first share's sums, in order
// (TestAnyPartitionSameBits: random cuts, chunks started in reverse on
// separate goroutines, every vector, sum, optimized length and a whole search
// against the serial engine, on amd64; elsewhere the Newton bodies may fuse).
//
// SetParallel is a plain field write with a call-before-evaluation contract:
// install the executor on the engine's goroutine before the evaluation or
// search it should serve, never while one runs.
//
// # Checkpointing
//
// A search is resumable at sweep boundaries (checkpoint.go). The contract:
// SearchOptions.Checkpoint is called with an engine-owned *Checkpoint after
// the starting tree is smoothed (the round-0 boundary) and after every NNI
// sweep; the callback must serialize (AppendBinary, allocation-free into a
// reused buffer) or copy before returning, and SearchOptions.Resume restarts
// from a decoded checkpoint such that the completed search — every
// likelihood bit, the final topology, all counters — is byte-identical to
// the uninterrupted run. That identity holds because a checkpoint stores the
// exact float64 bits of every branch length plus the full search-loop state,
// while conditional vectors are recomputed from them (Refresh), which is
// bit-exact because every vector is a deterministic function of its inputs
// (TestIncrementalMatchesFullRefresh). A checkpoint must Match the engine it
// resumes on (alignment shape, model family and parameter bits, rate
// categories); mismatches are rejected at Resume.
//
// The codec is versioned: the encoding starts with CheckpointVersion, and
// DecodeCheckpoint rejects versions it does not know. The rule for changing
// the format: any change to the encoded fields bumps CheckpointVersion, and
// decoders never guess — an unknown version, a short buffer or a CRC
// mismatch all fail decode, and callers (the job server) treat a failed
// decode as "no checkpoint" and recompute from scratch rather than resume
// from ambiguous state. Old-version checkpoints are thereby abandoned, not
// misread: durability degrades to recomputation, never to wrong results.
// Layout v1 has two reserved varint slots (written 0, read and discarded)
// where earlier binaries stored speculation counters, and a reserved byte
// (written 1) where they stored the site-repeat setting, which changes no
// result bit; those checkpoints still
// decode and resume — bit-identically on arithmetic they were cut from, and
// to the same topology with logL equal to rounding since the sum table
// replaced the per-iterate mat-vecs of their day.
package phylo
