// Package analyzers is the cellmg-lint suite: static-analysis passes that
// mechanically enforce the invariants this repository's performance and
// reproducibility claims rest on. Until this package existed those invariants
// lived in prose (doc comments, PR descriptions) and spot tests; the
// analyzers turn them into compile-time contracts that fail CI.
//
// # The four passes
//
//   - hotpathalloc: a function annotated //cellmg:hotpath must be
//     allocation-free — no make/new/append, no slice/map/chan composite
//     literals, no closures, no go/defer, no interface boxing — and may only
//     call functions that are themselves //cellmg:hotpath, are declared
//     //cellmg:hotpath-safe, or live in the whitelist (math, math/bits,
//     sync, sync/atomic). The likelihood kernels in internal/phylo
//     (newviewBody with its two set-ups — Newview for down vectors,
//     computeOutOne for out vectors, both through downSide — evaluate, and
//     makenewz with its buildSumTable, sumDerivatives and sumLogLik loops),
//     the ParallelFor runner
//     (internal/native) and the simulator's event path (internal/sim:
//     schedule, RunUntil, the heap sifts, wake, block, Delay, Queue.Put/Get,
//     Resource.Acquire/Release, Signal.Fire/Wait) carry the annotation;
//     the testing.AllocsPerRun guards in each package's alloc_test.go verify
//     the same property dynamically.
//
//   - determinism: a file annotated //cellmg:deterministic (above its
//     package clause) may not call global math/rand top-level functions,
//     read the wall clock (time.Now/Since/Until), or range over a map.
//     This is the compile-time face of the phylo.DeriveSeed splitmix64
//     discipline: every random stream is derived from the job seed, so
//     serial and any parallel interleaving produce byte-identical results.
//
//   - invalidation: outside cellmg/internal/phylo, the Engine kernel
//     methods Newview, EvaluateRoot and MakenewzEdge must not be called
//     directly — they bypass the incremental dirty tracking
//     (internal/phylo/incremental.go) and desynchronize the engine's cached
//     conditional vectors from the tree. Callers use LogLikelihood, Refresh,
//     the Optimize*/Search* entry points, or report mutations via the
//     Invalidate* API. Kernel-timing code (calibration, benchmark fixtures)
//     is the sanctioned exception and carries explicit waivers.
//
//   - parcapture: a closure passed to (*native.TaskContext).ParallelFor runs
//     concurrently on several pool workers; the analyzer flags non-indexed
//     writes to captured variables (races) and captures of enclosing loop
//     induction variables (the body's range arrives as its (lo, hi)
//     arguments).
//
// # Annotations
//
//	//cellmg:hotpath        function doc comment: body checked by hotpathalloc
//	//cellmg:hotpath-safe   function doc comment: callable from hotpath code
//	                        without body checks (steady-state allocation-free
//	                        by contract, guarded by alloc tests)
//	//cellmg:deterministic  above a package clause: file checked by determinism
//	//cellmg:allow a[,b] -- reason
//	                        on the flagged line or the line above: waives the
//	                        named analyzers at that site; the reason is
//	                        mandatory by convention and reviewed like code
//
// # Running
//
// Standalone (the CI gate; non-test files):
//
//	go run ./cmd/cellmg-lint ./...
//
// Through go vet (covers test compilations too):
//
//	go build -o "$(go env GOPATH)/bin/cellmg-lint" ./cmd/cellmg-lint
//	go vet -vettool="$(which cellmg-lint)" ./...
//
// Each diagnostic carries a suggested fix that inserts a waiver comment;
// `cellmg-lint -fix` applies them. Prefer fixing the finding — waivers are
// for sites where the violation is the point (e.g. timing a kernel in
// isolation).
//
// The framework subpackage supplies the analysis vocabulary (Analyzer, Pass,
// Diagnostic) and the loader; it mirrors golang.org/x/tools/go/analysis so
// the suite could be ported to real go/analysis passes by swapping imports.
package analyzers
