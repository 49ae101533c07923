//! Deterministic scoped parallelism for the AutoNCS workspace.
//!
//! Every primitive in this crate obeys one contract: **the chunk layout
//! is a function of the problem size only, never of the thread count or
//! of scheduling**. Workers fill pre-indexed output slots (or return
//! per-chunk partials that are folded sequentially in chunk order), so a
//! kernel built on these primitives produces bit-identical floating
//! point results at `NCS_THREADS=1`, `NCS_THREADS=4`, or any other
//! setting. The single-thread case never spawns: it runs the identical
//! chunk/fold structure inline on the calling thread.
//!
//! Two places in the workspace fan out: the dense eigensolver's
//! tred2/tql2 team in `ncs-linalg` (the one compute kernel measured to
//! pay on a second core) and the flow service's miss queue in
//! `ncs-serve` ([`par_map_queue`]). Clustering, placement, routing and
//! the sparse matvec run on the calling thread.
//!
//! # Serial cutoffs
//!
//! Pool dispatch costs tens of microseconds; a small kernel loses more
//! to spawning than it gains from extra cores. Every primitive
//! therefore takes a [`Cutoff`]: a calibrated minimum amount of work
//! below which the launch runs inline on the calling thread, with the
//! **same chunk grid and fold order**, so results are bit-identical on
//! both sides of the cutoff. The engage/fallback decision is a pure
//! function of the problem size — never of the thread count — and is
//! surfaced through two trace counters, `par.pool_dispatches` and
//! `par.inline_fallbacks`, which therefore also stay bit-identical
//! across thread counts.
//!
//! # Thread-count resolution
//!
//! The *requested* count, [`threads`], resolves in priority order:
//!
//! 1. an in-process override installed with [`set_thread_override`]
//!    (used by benches and determinism tests — no racy env mutation),
//! 2. the `NCS_THREADS` environment variable (read once per process;
//!    `0` or unparseable values fall back to the hardware default),
//! 3. [`std::thread::available_parallelism`].
//!
//! `0` uniformly means "hardware default" for both the environment
//! variable and the override. The count a launch actually spawns,
//! [`pool_threads`], additionally caps environment-resolved requests at
//! [`hardware_threads`]: this crate's workers are CPU-bound spinners,
//! so oversubscribing a core only adds barrier latency — and because
//! the chunk grid ignores the worker count, capping it cannot change a
//! single result bit. An explicit override is exempt from the cap so
//! determinism tests can still force genuinely oversubscribed teams.
//!
//! # Shadow-access checking
//!
//! `NCS_SHADOW=1` (or [`set_shadow_override`]) arms an in-house race
//! detector for the two invariants bit-identity rests on: mutable-split
//! launches ([`par_chunks_mut`], [`team_split_mut`]) verify their
//! worker claim tables — pairwise disjoint, covering the input exactly
//! — before any worker spawns, and every [`SharedF64Buf`] store is
//! recorded against the writer's `(worker, barrier phase)` so two
//! workers publishing one slot between the same pair of barriers is
//! reported as the unordered (racy) write it is. Off by default; see
//! [`shadow`] for the contract.
//!
//! # Example
//!
//! ```
//! // A chunked map: each chunk's partial comes back in chunk order, so
//! // folding them gives the same bits at any thread count, because the
//! // chunk grid depends only on (len, grain).
//! let mut xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
//! let partials = ncs_par::par_chunks_mut(&mut xs, 128, ncs_par::Cutoff::NONE, |_, chunk| {
//!     chunk.iter_mut().for_each(|x| *x *= 2.0);
//!     chunk.iter().sum::<f64>()
//! });
//! let total: f64 = partials.iter().sum();
//! let serial: f64 = ncs_par::chunk_ranges(xs.len(), 128)
//!     .map(|r| xs[r].iter().sum::<f64>())
//!     .sum();
//! assert_eq!(total.to_bits(), serial.to_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod shadow;

pub use shadow::set_shadow_override;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Upper bound on the worker count, to keep a typo'd `NCS_THREADS`
/// from spawning thousands of threads.
pub const MAX_THREADS: usize = 64;

/// In-process override: 0 means "no override".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `NCS_THREADS` / hardware default, resolved once per process.
static ENV_THREADS: OnceLock<usize> = OnceLock::new();

/// Hardware parallelism, resolved once per process.
static HW_THREADS: OnceLock<usize> = OnceLock::new();

/// The machine's available parallelism, clamped to
/// `1..=`[`MAX_THREADS`] and sampled once per process.
pub fn hardware_threads() -> usize {
    *HW_THREADS.get_or_init(|| {
        thread::available_parallelism()
            .map_or(1, |n| n.get())
            .clamp(1, MAX_THREADS)
    })
}

/// Resolves the *requested* worker count.
///
/// Priority: [`set_thread_override`] > `NCS_THREADS` > hardware
/// parallelism. Always in `1..=`[`MAX_THREADS`]. Note the environment
/// variable is sampled once per process, on first use. Launches spawn
/// [`pool_threads`] workers, which may be fewer.
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    *ENV_THREADS.get_or_init(|| {
        let hw = thread::available_parallelism().map_or(1, |n| n.get());
        resolve_threads(std::env::var("NCS_THREADS").ok().as_deref(), hw)
    })
}

/// The worker count a launch actually spawns: the requested count,
/// capped at [`hardware_threads`] unless it came from an explicit
/// [`set_thread_override`].
///
/// The cap exists because these pools are CPU-bound spin-barrier
/// workers — on a 1-core host, `NCS_THREADS=4` used to mean four
/// workers time-sharing one core, which made the eigensolver up to 23×
/// *slower* than serial. The chunk grid is a function of the problem
/// size only, so capping the worker count cannot change any result
/// bit. Overrides bypass the cap so determinism tests can force real
/// oversubscribed teams.
pub fn pool_threads() -> usize {
    match thread_override() {
        Some(n) => n,
        None => threads().min(hardware_threads()),
    }
}

/// Pure thread-count resolution, separated from process state so it can
/// be unit-tested without touching the environment.
///
/// `None`, an unparseable string, or `0` yield the hardware default;
/// everything is clamped to `1..=`[`MAX_THREADS`].
pub fn resolve_threads(env_value: Option<&str>, hardware: usize) -> usize {
    let requested = env_value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(hardware);
    requested.clamp(1, MAX_THREADS)
}

/// Installs (`Some(n)`) or removes (`None`) an in-process thread-count
/// override that takes priority over `NCS_THREADS`.
///
/// Determinism tests and benches use this to compare thread counts
/// within one process. `Some(0)` means "hardware default", matching
/// the `NCS_THREADS=0` environment semantics, and is resolved to
/// [`hardware_threads`] at install time (so [`thread_override`]
/// reports the resolved count).
pub fn set_thread_override(n: Option<usize>) {
    let v = n.map_or(0, |x| {
        if x == 0 {
            hardware_threads()
        } else {
            x.clamp(1, MAX_THREADS)
        }
    });
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Returns the current override installed by [`set_thread_override`].
pub fn thread_override() -> Option<usize> {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// A size-aware serial cutoff: the minimum amount of work a launch must
/// carry before it is worth dispatching to the worker pool.
///
/// A launch over `items` items engages the pool when
/// `items * work_per_item >= min_work`; below that it runs inline on
/// the calling thread **with the identical chunk grid and fold order**,
/// so the cutoff can never change result bits — only where the work
/// runs. `work_per_item` lets callers express per-item cost in
/// whatever unit they calibrated `min_work` in (flops, touched
/// entries, grid cells), defaulting to 1.
///
/// The decision is a pure function of the problem size, which keeps
/// the `par.pool_dispatches` / `par.inline_fallbacks` trace counters —
/// and therefore whole trace streams — bit-identical across thread
/// counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cutoff {
    min_work: usize,
    work_per_item: usize,
}

impl Cutoff {
    /// No cutoff: every non-trivial launch engages the pool.
    pub const NONE: Cutoff = Cutoff {
        min_work: 0,
        work_per_item: 1,
    };

    /// A cutoff that engages once total work reaches `min_work` units.
    pub const fn min_work(min_work: usize) -> Cutoff {
        Cutoff {
            min_work,
            work_per_item: 1,
        }
    }

    /// Sets the per-item work estimate (clamped to ≥ 1) used to convert
    /// an item count into total work units.
    pub const fn work_per_item(self, work: usize) -> Cutoff {
        Cutoff {
            min_work: self.min_work,
            work_per_item: if work == 0 { 1 } else { work },
        }
    }

    /// Whether a launch over `items` items carries enough total work to
    /// engage the pool.
    pub fn engages(&self, items: usize) -> bool {
        items.saturating_mul(self.work_per_item) >= self.min_work
    }
}

/// Decides the worker count for a launch over `items` items split into
/// `chunks` chunks, recording the decision as a trace counter.
///
/// Both inputs are functions of the problem size only, so the counter
/// stream is identical at any thread count; only the returned worker
/// count (never observable in results) depends on [`pool_threads`].
fn launch_workers(items: usize, chunks: usize, cutoff: Cutoff) -> usize {
    if chunks <= 1 || !cutoff.engages(items) {
        ncs_trace::add("par.inline_fallbacks", 1);
        1
    } else {
        ncs_trace::add("par.pool_dispatches", 1);
        pool_threads().min(chunks)
    }
}

/// Number of fixed-size chunks covering `len` items at `grain` items
/// per chunk (the last chunk may be short). `grain` is clamped to ≥ 1.
pub fn chunk_count(len: usize, grain: usize) -> usize {
    len.div_ceil(grain.max(1))
}

/// The fixed chunk grid: disjoint, ascending ranges covering `0..len`.
///
/// This grid — a function of `(len, grain)` only — is the unit of work
/// distribution everywhere in this crate, which is what makes results
/// independent of the thread count.
pub fn chunk_ranges(len: usize, grain: usize) -> impl Iterator<Item = Range<usize>> {
    let grain = grain.max(1);
    (0..chunk_count(len, grain)).map(move |c| (c * grain)..((c + 1) * grain).min(len))
}

/// Joins a scoped worker, propagating any panic to the caller.
fn join<R>(handle: thread::ScopedJoinHandle<'_, R>) -> R {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// The element-range claim table of a launch: worker `w` owns
/// `claims[w]`, a contiguous, ascending run of whole chunks. This single
/// table both feeds the `split_at_mut` loop and is what the
/// shadow-access checker verifies, so the ranges the checker approves
/// are exactly the ranges the workers receive.
fn worker_elem_claims(
    chunks: usize,
    workers: usize,
    grain: usize,
    len: usize,
) -> Vec<Range<usize>> {
    (0..workers)
        .map(|w| {
            let (first, end) = (w * chunks / workers, (w + 1) * chunks / workers);
            (first * grain).min(len)..(end * grain).min(len)
        })
        .collect()
}

/// Applies `f` to every chunk of `data` (mutably), returning the
/// per-chunk results in chunk order.
///
/// `f` receives the global element offset of the chunk plus the chunk
/// slice. Chunks are assigned to workers as contiguous runs, so the
/// returned `Vec` is always in ascending chunk order regardless of the
/// thread count; below the `cutoff` (measured in elements of `data`),
/// or with one thread, the chunks run inline, in order.
pub fn par_chunks_mut<T, A, F>(data: &mut [T], grain: usize, cutoff: Cutoff, f: F) -> Vec<A>
where
    T: Send,
    A: Send,
    F: Fn(usize, &mut [T]) -> A + Sync,
{
    let len = data.len();
    let grain = grain.max(1);
    let chunks = chunk_count(len, grain);
    let workers = launch_workers(len, chunks, cutoff);
    if workers <= 1 {
        if shadow::enabled() {
            let grid: Vec<Range<usize>> = chunk_ranges(len, grain).collect();
            shadow::check_launch("par_chunks_mut", len, &grid);
        }
        let mut out = Vec::with_capacity(chunks);
        let mut start = 0;
        for chunk in data.chunks_mut(grain) {
            out.push(f(start, chunk));
            start += chunk.len();
        }
        return out;
    }
    let claims = worker_elem_claims(chunks, workers, grain, len);
    if shadow::enabled() {
        // Verified before any worker spawns: a bad claim table panics on
        // the launching thread, never stranding workers at a barrier.
        shadow::check_launch("par_chunks_mut", len, &claims);
    }
    let mut per_worker: Vec<Vec<A>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest = data;
        for claim in &claims {
            let (mine, tail) = rest.split_at_mut(claim.end - claim.start);
            rest = tail;
            let base = claim.start;
            let fref = &f;
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(chunk_count(mine.len(), grain));
                let mut start = base;
                for chunk in mine.chunks_mut(grain) {
                    out.push(fref(start, chunk));
                    start += chunk.len();
                }
                out
            }));
        }
        for h in handles {
            per_worker.push(join(h));
        }
    });
    per_worker.into_iter().flatten().collect()
}

/// Maps every item of `items` through `f`, returning results in item
/// order (slot `i` always holds `f(i, &items[i])`). Workers claim items
/// one at a time from an atomic next-item counter, then results are
/// reassembled in item order.
///
/// This is the right shape when per-item cost varies wildly (the flow
/// service's distinct cache misses: one may be a full `implement` while
/// the rest are cheap) — a straggler item does not delay claims of the
/// items after it. The *claim order* is scheduling-dependent,
/// but each result is keyed by its item index and sorted before
/// returning, so as long as `f` is a pure function of `(i, &items[i])`
/// the output is identical to the serial `items.iter().map(...)` pass
/// — which is exactly what runs below the `cutoff` or with one worker.
pub fn par_map_queue<T, R, F>(items: &[T], cutoff: Cutoff, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = launch_workers(n, n, cutoff);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut per_worker: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let fref = &f;
            let nref = &next;
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                loop {
                    let i = nref.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    got.push((i, fref(i, &items[i])));
                }
                got
            }));
        }
        for h in handles {
            per_worker.push(join(h));
        }
    });
    let mut all: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// A sense-reversing spin barrier: orders of magnitude cheaper than
/// `std::sync::Barrier` for the tight per-iteration synchronisation the
/// eigensolver team needs (thousands of waits per call).
struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(parties: usize) -> Self {
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all `parties` workers arrive. The last arrival
    /// resets the count *before* bumping the generation, so the barrier
    /// is immediately reusable.
    fn wait(&self) {
        if self.parties <= 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.saturating_add(1);
                if spins > 1 << 14 {
                    // Oversubscribed (e.g. a 1-core container): yield so
                    // the straggler can actually run.
                    thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// Per-worker context handed to a [`team_split_mut`] body.
pub struct TeamCtx<'a> {
    /// This worker's index in `0..workers`.
    pub worker: usize,
    /// Total workers in the team (1 on the serial path).
    pub workers: usize,
    /// First item (row) owned by this worker.
    pub first_item: usize,
    /// Number of items owned by this worker.
    pub items: usize,
    /// Total items across the whole team.
    pub total_items: usize,
    barrier: &'a SpinBarrier,
}

impl TeamCtx<'_> {
    /// Barrier: blocks until every worker in the team has called it.
    /// A no-op for a one-worker team. All data published to a
    /// [`SharedF64Buf`] before the barrier is visible after it.
    pub fn sync(&self) {
        self.barrier.wait();
        // Barriers are collective, so every worker's shadow phase
        // counter advances in lockstep (a no-op outside shadow mode).
        shadow::bump_phase();
    }

    /// Whether `item` falls in this worker's owned range.
    pub fn owns(&self, item: usize) -> bool {
        item >= self.first_item && item < self.first_item + self.items
    }

    /// This worker's owned item range.
    pub fn range(&self) -> Range<usize> {
        self.first_item..self.first_item + self.items
    }
}

/// SPMD team over `data` viewed as `data.len() / item_len` fixed-size
/// items (e.g. matrix rows): each worker owns a contiguous run of items
/// and runs `body` to completion, synchronising via [`TeamCtx::sync`].
///
/// Worker boundaries are aligned to multiples of `grain` items, so a
/// chunk grid built with [`chunk_ranges`]`(n_items, grain)` is never
/// split across workers — each chunk has exactly one owner. Returns the
/// per-worker results in worker order. Below the `cutoff` (measured in
/// items), with one worker, or when [`pool_threads`] is 1, `body` runs
/// inline on the calling thread with the full slice, executing the
/// same code path.
///
/// # Panics
///
/// Panics if `item_len == 0` or `data.len()` is not a multiple of
/// `item_len`.
pub fn team_split_mut<T, R, F>(
    data: &mut [T],
    item_len: usize,
    grain: usize,
    cutoff: Cutoff,
    body: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(TeamCtx<'_>, &mut [T]) -> R + Sync,
{
    assert!(item_len > 0, "team_split_mut: item_len must be positive");
    assert_eq!(
        data.len() % item_len,
        0,
        "team_split_mut: data must hold whole items"
    );
    let total_items = data.len() / item_len;
    let grain = grain.max(1);
    let blocks = chunk_count(total_items, grain);
    let workers = launch_workers(total_items, blocks, cutoff);
    if workers <= 1 {
        let barrier = SpinBarrier::new(1);
        let ctx = TeamCtx {
            worker: 0,
            workers: 1,
            first_item: 0,
            items: total_items,
            total_items,
            barrier: &barrier,
        };
        let _identity = shadow::enter_team(0);
        return vec![body(ctx, data)];
    }
    let claims = worker_elem_claims(blocks, workers, grain, total_items);
    if shadow::enabled() {
        // Verified before any worker spawns: a bad claim table panics on
        // the launching thread, never stranding workers at a barrier.
        shadow::check_launch("team_split_mut", total_items, &claims);
    }
    let barrier = SpinBarrier::new(workers);
    let mut results: Vec<R> = Vec::with_capacity(workers);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest = data;
        for (w, claim) in claims.iter().enumerate() {
            let (mine, tail) = rest.split_at_mut((claim.end - claim.start) * item_len);
            rest = tail;
            let ctx = TeamCtx {
                worker: w,
                workers,
                first_item: claim.start,
                items: claim.end - claim.start,
                total_items,
                barrier: &barrier,
            };
            let bref = &body;
            handles.push(scope.spawn(move || {
                let _identity = shadow::enter_team(ctx.worker);
                bref(ctx, mine)
            }));
        }
        for h in handles {
            results.push(join(h));
        }
    });
    results
}

/// A shared `f64` exchange buffer for [`team_split_mut`] bodies, backed
/// by `AtomicU64` bit patterns so no `unsafe` is needed.
///
/// Loads and stores are `Relaxed`: the intended protocol is
/// write → [`TeamCtx::sync`] → read, with the barrier providing the
/// ordering. Values written outside that protocol may be observed torn
/// across *different* slots but never within one (each slot is a single
/// atomic word).
pub struct SharedF64Buf {
    bits: Vec<AtomicU64>,
    /// Shadow-access tracking, snapshotted from [`shadow::enabled`] at
    /// construction; `None` (the default) costs one branch per store.
    shadow: Option<shadow::ShadowSlots>,
}

impl SharedF64Buf {
    /// A buffer of `len` slots, all initialised to `0.0`.
    pub fn new(len: usize) -> Self {
        SharedF64Buf {
            bits: (0..len).map(|_| AtomicU64::new(0)).collect(),
            shadow: shadow::enabled().then(shadow::ShadowSlots::new),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the buffer has no slots.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Stores `value` into slot `i` (bit-exact).
    pub fn set(&self, i: usize, value: f64) {
        if let Some(slots) = &self.shadow {
            slots.record(i);
        }
        self.bits[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Loads slot `i` (bit-exact).
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.bits[i].load(Ordering::Relaxed))
    }

    /// Drains the shadow-access violations recorded on this buffer:
    /// same-slot writes by different workers within one barrier phase.
    /// Always empty when the buffer was created with the shadow checker
    /// disabled (writes are then untracked).
    pub fn shadow_violations(&self) -> Vec<String> {
        self.shadow
            .as_ref()
            .map_or_else(Vec::new, shadow::ShadowSlots::take_violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialises tests that mutate the process-wide thread override.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    fn with_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(n));
        let out = f();
        set_thread_override(None);
        out
    }

    #[test]
    fn resolve_threads_parses_and_clamps() {
        assert_eq!(resolve_threads(None, 8), 8);
        assert_eq!(resolve_threads(Some("3"), 8), 3);
        assert_eq!(resolve_threads(Some(" 2 "), 8), 2);
        assert_eq!(resolve_threads(Some("0"), 8), 8, "0 means auto");
        assert_eq!(resolve_threads(Some("nope"), 8), 8);
        assert_eq!(resolve_threads(Some("9999"), 8), MAX_THREADS);
        assert_eq!(resolve_threads(None, 0), 1, "hardware floor is 1");
    }

    #[test]
    fn override_round_trips() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(5));
        assert_eq!(thread_override(), Some(5));
        assert_eq!(threads(), 5);
        set_thread_override(None);
        assert_eq!(thread_override(), None);
    }

    #[test]
    fn override_zero_means_hardware_default() {
        // Unified with the NCS_THREADS=0 env semantics: 0 is "auto",
        // resolved against the machine, never a clamp to 1.
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(Some(0));
        assert_eq!(thread_override(), Some(hardware_threads()));
        assert_eq!(threads(), hardware_threads());
        set_thread_override(None);
        assert_eq!(thread_override(), None);
    }

    #[test]
    fn pool_threads_caps_env_but_not_override() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_thread_override(None);
        assert!(pool_threads() <= hardware_threads());
        // An explicit override is exact, even when oversubscribed.
        set_thread_override(Some(hardware_threads() + 3));
        assert_eq!(pool_threads(), hardware_threads() + 3);
        set_thread_override(None);
    }

    #[test]
    fn hardware_threads_is_sane() {
        let hw = hardware_threads();
        assert!((1..=MAX_THREADS).contains(&hw));
        assert_eq!(hw, hardware_threads(), "cached value is stable");
    }

    #[test]
    fn cutoff_engages_by_total_work() {
        assert!(Cutoff::NONE.engages(0), "no cutoff engages everything");
        let c = Cutoff::min_work(1000);
        assert!(!c.engages(999));
        assert!(c.engages(1000));
        let weighted = Cutoff::min_work(1000).work_per_item(250);
        assert!(!weighted.engages(3));
        assert!(weighted.engages(4));
        // A zero per-item weight clamps to 1 instead of dividing by zero.
        assert!(!Cutoff::min_work(2).work_per_item(0).engages(1));
        assert!(Cutoff::min_work(2).work_per_item(0).engages(2));
    }

    #[test]
    fn chunk_grid_covers_len_exactly() {
        for (len, grain) in [(0, 4), (1, 4), (7, 3), (12, 3), (12, 100), (5, 0)] {
            let ranges: Vec<_> = chunk_ranges(len, grain).collect();
            assert_eq!(ranges.len(), chunk_count(len, grain));
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must be ascending and disjoint");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len, "ranges must cover 0..len");
        }
    }

    #[test]
    fn par_chunks_mut_matches_serial_at_any_thread_count() {
        let expect: Vec<f64> = (0..103).map(|i| (i as f64) * 2.0).collect();
        for t in [1, 2, 5] {
            let mut data: Vec<f64> = (0..103).map(|i| i as f64).collect();
            let sums = with_override(t, || {
                par_chunks_mut(&mut data, 10, Cutoff::NONE, |start, chunk| {
                    for (k, x) in chunk.iter_mut().enumerate() {
                        assert_eq!(*x, (start + k) as f64, "offsets must be global");
                        *x *= 2.0;
                    }
                    chunk.iter().sum::<f64>()
                })
            });
            assert_eq!(data, expect);
            assert_eq!(sums.len(), chunk_count(103, 10));
            let flat: f64 = sums.iter().sum();
            assert_eq!(flat, expect.iter().sum::<f64>());
        }
    }

    #[test]
    fn cutoff_sides_are_bit_identical() {
        // The same launch, forced inline by a huge cutoff vs dispatched
        // with none, must agree to the bit at an oversubscribed count.
        let xs: Vec<f64> = (0..2048).map(|i| (i as f64).cos() / 3.0).collect();
        let run = |cutoff: Cutoff| {
            let mut data = xs.clone();
            let partials = with_override(4, || {
                par_chunks_mut(&mut data, 32, cutoff, |_, chunk| {
                    for x in chunk.iter_mut() {
                        *x = x.sin();
                    }
                    chunk.iter().sum::<f64>()
                })
            });
            let total = partials.iter().fold(0.0f64, |acc, p| acc + p);
            (
                total.to_bits(),
                data.iter().map(|x| x.to_bits()).collect::<Vec<u64>>(),
            )
        };
        let inline = run(Cutoff::min_work(usize::MAX));
        let pooled = run(Cutoff::NONE);
        assert_eq!(inline, pooled);
    }

    #[test]
    fn par_map_queue_preserves_item_order() {
        // Claim order is scheduling-dependent; the output must not be.
        let items: Vec<usize> = (0..201).collect();
        let expect: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3)).collect();
        for t in [1, 2, 4, 7] {
            let out = with_override(t, || {
                par_map_queue(&items, Cutoff::NONE, |i, &x| {
                    // Uneven per-item cost to scramble the claim order.
                    if x % 13 == 0 {
                        std::thread::yield_now();
                    }
                    (i, x * 3)
                })
            });
            assert_eq!(out, expect);
        }
        // Below the cutoff the serial pass produces the same output.
        let inline = with_override(4, || {
            par_map_queue(&items, Cutoff::min_work(usize::MAX), |i, &x| (i, x * 3))
        });
        assert_eq!(inline, expect);
    }

    #[test]
    fn launch_decisions_are_trace_visible_and_size_only() {
        // The dispatch/fallback counters must be a pure function of the
        // problem size: identical event streams at 1 and 4 threads.
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let run = |t: usize| {
            set_thread_override(Some(t));
            let ((), events) = ncs_trace::capture(|| {
                let mut data = vec![1.0f64; 4096];
                // Engages: plenty of work, no cutoff.
                par_chunks_mut(&mut data, 64, Cutoff::NONE, |_, c| c.len());
                // Falls back: below a huge cutoff.
                par_chunks_mut(&mut data, 64, Cutoff::min_work(usize::MAX), |_, c| c.len());
                // Falls back: a single item can't use a pool.
                par_map_queue(&[1u8], Cutoff::NONE, |_, &x| x);
            });
            set_thread_override(None);
            events
        };
        let at1 = run(1);
        let at4 = run(4);
        assert_eq!(ncs_trace::structure(&at1), ncs_trace::structure(&at4));
        let count = |events: &[ncs_trace::TraceEvent], which: &str| {
            events
                .iter()
                .filter(
                    |e| matches!(e, ncs_trace::TraceEvent::Count { name, .. } if *name == which),
                )
                .count()
        };
        assert_eq!(count(&at1, "par.pool_dispatches"), 1);
        assert_eq!(count(&at1, "par.inline_fallbacks"), 2);
    }

    #[test]
    fn team_split_covers_items_and_aligns_to_grain() {
        for t in [1, 3, 4] {
            let mut rows = vec![0u32; 11 * 4]; // 11 items of length 4
            let infos = with_override(t, || {
                team_split_mut(&mut rows, 4, 2, Cutoff::NONE, |ctx, mine| {
                    assert_eq!(mine.len(), ctx.items * 4);
                    assert_eq!(ctx.first_item % 2, 0, "grain-aligned boundaries");
                    for x in mine.iter_mut() {
                        *x += 1;
                    }
                    (ctx.worker, ctx.first_item, ctx.items)
                })
            });
            assert!(rows.iter().all(|&x| x == 1), "every item visited once");
            let mut next = 0;
            for (w, first, items) in &infos {
                assert_eq!(*w, infos[*w].0);
                assert_eq!(*first, next);
                next += items;
            }
            assert_eq!(next, 11);
        }
    }

    #[test]
    fn team_barrier_publishes_shared_values() {
        // Classic SPMD round trip: worker 0 publishes, everyone reads
        // after the barrier, everyone publishes partials, worker 0 folds
        // in index order. Must give the same answer at any team size.
        let run_at = |t: usize| {
            with_override(t, || {
                let mut rows = vec![0.0f64; 16 * 2];
                for (i, x) in rows.iter_mut().enumerate() {
                    *x = i as f64;
                }
                let buf = SharedF64Buf::new(16);
                let seedbuf = SharedF64Buf::new(1);
                let folds = team_split_mut(&mut rows, 2, 1, Cutoff::NONE, |ctx, mine| {
                    if ctx.worker == 0 {
                        seedbuf.set(0, 0.5);
                    }
                    ctx.sync();
                    let seed = seedbuf.get(0);
                    for (k, item) in mine.chunks(2).enumerate() {
                        buf.set(ctx.first_item + k, seed * (item[0] + item[1]));
                    }
                    ctx.sync();
                    // Every worker folds the full buffer in index order:
                    // identical bits on all workers.
                    let mut acc = 0.0;
                    for i in 0..buf.len() {
                        acc += buf.get(i);
                    }
                    acc
                });
                for w in &folds {
                    assert_eq!(w.to_bits(), folds[0].to_bits());
                }
                folds[0]
            })
        };
        let reference = run_at(1);
        for t in [2, 4] {
            assert_eq!(run_at(t).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn shared_buf_round_trips_exact_bits() {
        let buf = SharedF64Buf::new(3);
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        for v in [0.0, -0.0, 1.5e-300, f64::INFINITY, f64::MIN_POSITIVE] {
            buf.set(1, v);
            assert_eq!(buf.get(1).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn shadow_checker_passes_clean_launches() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_shadow_override(Some(true));
        set_thread_override(Some(3));
        let before = shadow::violation_count();
        let mut data = vec![0u32; 37];
        par_chunks_mut(&mut data, 4, Cutoff::NONE, |_, c| {
            for x in c.iter_mut() {
                *x += 1;
            }
        });
        assert!(data.iter().all(|&x| x == 1));
        let buf = SharedF64Buf::new(8);
        let mut rows = vec![0.0f64; 8];
        team_split_mut(&mut rows, 1, 1, Cutoff::NONE, |ctx, mine| {
            // Each worker publishes only its own slots: disjoint by
            // construction, so the checker must stay silent.
            for k in 0..mine.len() {
                buf.set(ctx.first_item + k, ctx.worker as f64);
            }
            ctx.sync();
        });
        assert!(buf.shadow_violations().is_empty());
        assert_eq!(shadow::violation_count(), before);
        set_thread_override(None);
        set_shadow_override(None);
    }

    #[test]
    fn shadow_checker_catches_same_phase_slot_conflict() {
        let _guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_shadow_override(Some(true));
        set_thread_override(Some(2));
        let before = shadow::violation_count();
        let buf = SharedF64Buf::new(4);
        let mut rows = vec![0.0f64; 8]; // 2 grain-4 blocks => 2 workers
        team_split_mut(&mut rows, 1, 4, Cutoff::NONE, |ctx, _mine| {
            // Both workers store slot 0 between the same barrier pair:
            // an unordered publication the barrier cannot sequence.
            buf.set(0, ctx.worker as f64);
            ctx.sync();
        });
        let v = buf.shadow_violations();
        assert_eq!(v.len(), 1, "expected exactly one conflict: {v:?}");
        assert!(v[0].contains("slot 0"), "{}", v[0]);
        assert_eq!(shadow::violation_count(), before + 1);
        set_thread_override(None);
        set_shadow_override(None);
    }

    #[test]
    fn deliberately_overlapping_chunk_claims_are_caught() {
        // The claim table a buggy worker-run split would hand to
        // par_chunks_mut: each worker's end rounds up one extra chunk,
        // so every boundary chunk gains a second writer.
        let (len, grain, workers) = (100usize, 10usize, 4usize);
        let chunks = chunk_count(len, grain);
        let buggy: Vec<Range<usize>> = (0..workers)
            .map(|w| {
                let start = w * chunks / workers * grain;
                let end = ((w + 1) * chunks / workers * grain + grain).min(len);
                start..end
            })
            .collect();
        let err = shadow::verify_claims(len, &buggy).unwrap_err();
        assert!(matches!(err, shadow::ShadowError::Overlap { .. }), "{err}");
        // The exact table the real split computes passes.
        assert_eq!(
            shadow::verify_claims(len, &worker_elem_claims(chunks, workers, grain, len)),
            Ok(())
        );
    }

    #[test]
    #[should_panic(expected = "shadow-access checker")]
    fn launch_assertion_panics_on_bad_claims() {
        shadow::check_launch("par_chunks_mut", 10, &[0..6, 4..10]);
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: [f64; 0] = [];
        assert!(par_chunks_mut(&mut empty, 4, Cutoff::NONE, |_, _| 0).is_empty());
        let empty_q: [u8; 0] = [];
        assert!(par_map_queue(&empty_q, Cutoff::NONE, |_, &x| x).is_empty());
        let mut rows: [f64; 0] = [];
        let results = team_split_mut(&mut rows, 1, 4, Cutoff::NONE, |ctx, mine| {
            (ctx.total_items, mine.len())
        });
        assert_eq!(results, vec![(0, 0)]);
    }
}
