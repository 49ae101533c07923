//! Nesterov-based global placement engine (`PlaceAlgorithm::Nesterov`).
//!
//! Replaces the reference λ-doubling CG outer loop with the modern
//! analytical-placement stack: one flat Nesterov first-order loop over
//! `WL(p) + λ·D(p)` where `D` is the grid-binned density field of
//! [`super::density`], the step length is an inverse-Lipschitz estimate
//! `|Δv| / |Δg|` with ePlace-style backtracking, and a per-cell
//! Jacobi preconditioner (incident wire weight + λ-scaled cell area per
//! bin) evens out the stiffness between heavy macros and single-wire
//! synapses. λ ramps geometrically each iteration instead of doubling
//! per outer solve, so the density pressure and the optimizer state
//! evolve together.
//!
//! Determinism: the gradient evaluations delegate to
//! [`super::wa_wirelength`] and [`DensityGrid::evaluate`] (both folding
//! fixed chunk grids in order); everything else in the loop is
//! index-order vector arithmetic. The determinism suite pins the
//! engine's output bit for bit.

use crate::{Netlist, Placement};

use super::density::DensityGrid;
use super::legalize;
use super::{initial_grid, overlap_area, shift_to_positive_quadrant, wa_wirelength, PlacerOptions};

/// Options for the Nesterov global-placement engine
/// ([`super::PlaceAlgorithm::Nesterov`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NesterovOptions {
    /// Maximum Nesterov iterations (the engine has a single flat loop,
    /// unlike the reference's outer×CG nesting).
    pub max_iterations: usize,
    /// Stop once the grid-density overflow fraction (overflowing area
    /// over total cell area) falls to this level — after density
    /// pressure has actually engaged.
    pub target_overflow: f64,
    /// Geometric growth of the density weight λ per iteration. Must be
    /// > 1; ePlace-style schedules sit near 1.05.
    pub lambda_growth: f64,
    /// Density bins per axis; 0 picks `⌈√n⌉` clamped to `[4, 256]`.
    pub bins: usize,
    /// Target utilization per density bin, in (0, 1].
    pub target_density: f64,
    /// Bound on step-shrinking backtracks per iteration.
    pub max_backtracks: usize,
}

impl Default for NesterovOptions {
    fn default() -> Self {
        NesterovOptions {
            max_iterations: 150,
            target_overflow: 0.12,
            lambda_growth: 1.06,
            bins: 0,
            target_density: 0.9,
            max_backtracks: 4,
        }
    }
}

/// Shared state of one objective/gradient evaluation.
struct Eval {
    /// Preconditioned composite gradient, layout `[∂x..., ∂y...]`.
    grad: Vec<f64>,
    /// Σ|∂WL| (unpreconditioned) — for the λ estimate.
    sum_wl: f64,
    /// Σ|∂D| (unpreconditioned).
    sum_d: f64,
    /// Density overflow fraction at the evaluated point.
    overflow: f64,
}

/// Evaluates the preconditioned gradient of `WL + λ·D` at `p`.
fn evaluate(
    netlist: &Netlist,
    grid: &mut DensityGrid,
    p: &[f64],
    gamma: f64,
    lambda: f64,
    precond: &[f64],
) -> Eval {
    let n = netlist.cells.len();
    let mut grad_wl = vec![0.0; 2 * n];
    let mut grad_d = vec![0.0; 2 * n];
    wa_wirelength(netlist, p, gamma, Some(&mut grad_wl[..]));
    let density = grid.evaluate(p, Some(&mut grad_d[..]));
    let sum_wl: f64 = grad_wl.iter().map(|g| g.abs()).sum();
    let sum_d: f64 = grad_d.iter().map(|g| g.abs()).sum();
    let mut grad = vec![0.0; 2 * n];
    for i in 0..n {
        let h = precond[i];
        grad[i] = (grad_wl[i] + lambda * grad_d[i]) / h;
        grad[n + i] = (grad_wl[n + i] + lambda * grad_d[n + i]) / h;
    }
    Eval {
        grad,
        sum_wl,
        sum_d,
        overflow: density.overflow,
    }
}

/// ℓ₂ distance between two coordinate vectors.
fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Runs the Nesterov engine end to end: grid init, the momentum loop,
/// then the deterministic macro-Tetris + Abacus-row legalizer of
/// [`super::legalize`]. Option validation happens in [`super::place`].
pub(super) fn place_nesterov(netlist: &Netlist, options: &PlacerOptions) -> Placement {
    let n = netlist.cells.len();
    let nopt = &options.nesterov;
    let (xs0, ys0) = initial_grid(netlist, options.omega);
    let mut grid = DensityGrid::new(
        netlist,
        &xs0,
        &ys0,
        options.omega,
        nopt.target_density,
        nopt.bins,
    );

    // Jacobi preconditioner: the wirelength Hessian's diagonal scales
    // with the total incident wire weight; the density side with the
    // cell's virtual area per bin, amplified by λ. Clamped at 1 so
    // isolated cells don't take unbounded steps.
    let mut degree = vec![0.0; n];
    for w in &netlist.wires {
        for &p in &w.pins {
            degree[p] += w.weight;
        }
    }
    let bin_area = grid.bin_w * grid.bin_h;
    let area_scale: Vec<f64> = netlist
        .cells
        .iter()
        .map(|c| (options.omega * c.dims.width) * (options.omega * c.dims.height) / bin_area)
        .collect();
    let precond = |lambda: f64| -> Vec<f64> {
        degree
            .iter()
            .zip(&area_scale)
            .map(|(d, a)| (d + lambda * a).max(1.0))
            .collect()
    };

    // Main (u) and lookahead (v) sequences start at the spread grid.
    let mut u: Vec<f64> = xs0.iter().chain(ys0.iter()).copied().collect();
    let mut v = u.clone();
    let mut a_k = 1.0_f64;
    let mut lambda = 0.0_f64;
    let mut h = precond(lambda);
    let mut eval = evaluate(netlist, &mut grid, &v, options.gamma, lambda, &h);
    // λ0 = Σ|∂WL| / Σ|∂D| once density pressure exists; until then the
    // loop runs pure wirelength (λ stays 0 and is re-estimated each
    // iteration — the WL pull itself creates the overflow that turns
    // density on).
    if eval.sum_d > 0.0 && eval.sum_wl > 0.0 {
        lambda = eval.sum_wl / eval.sum_d;
        h = precond(lambda);
        eval = evaluate(netlist, &mut grid, &v, options.gamma, lambda, &h);
    }

    // Initial step: a conservative fraction of a bin per unit gradient;
    // the Lipschitz ratio self-corrects it from iteration 2 on.
    let g_max = eval.grad.iter().fold(0.0_f64, |m, g| m.max(g.abs()));
    let mut alpha = if g_max > 0.0 {
        0.1 * grid.bin_w / g_max
    } else {
        1.0
    };
    let mut v_prev = v.clone();
    let mut g_prev = eval.grad.clone();
    let mut pressure_engaged = eval.overflow > nopt.target_overflow;
    let mut iters = 0_usize;
    let mut backtracks = 0_u64;

    // The returned iterate is the least-overflow snapshot *of the final
    // descent*, not the last iterate: the trajectory clumps first (the
    // WL pull raises overflow over the spread start), then density
    // spreads it back out (overflow descends with the wirelength still
    // good), and finally λ — growing geometrically without bound —
    // scrambles the wirelength for no overflow gain once the bin
    // granularity floor is hit. A new overflow *peak* resets the
    // snapshot, so the clumping phase cannot freeze the spread start in
    // as "best"; afterwards every new overflow minimum is kept, and the
    // loop stops once the minimum stalls.
    let mut best_u = u.clone();
    let mut best_overflow = eval.overflow;
    let mut peak_overflow = eval.overflow;

    for k in 0..nopt.max_iterations {
        iters = k + 1;
        // Inverse-Lipschitz step estimate from the last two lookahead
        // gradients; the first iteration keeps the conservative seed.
        if k > 0 {
            let dv = dist(&v, &v_prev);
            let dg = dist(&eval.grad, &g_prev);
            if dv > 0.0 && dg > 0.0 {
                let est = dv / dg;
                if est.is_finite() && est > 0.0 {
                    alpha = est;
                }
            }
        }
        let a_next = (1.0 + (4.0 * a_k * a_k + 1.0).sqrt()) / 2.0;
        let coef = (a_k - 1.0) / a_next;
        // Backtracking (ePlace Algorithm 2): predict, re-measure the
        // local Lipschitz constant at the predicted lookahead, shrink α
        // until the prediction is consistent.
        let mut u_new = vec![0.0; 2 * n];
        let mut v_new = vec![0.0; 2 * n];
        let mut eval_new;
        let mut bt = 0_usize;
        loop {
            for i in 0..2 * n {
                u_new[i] = v[i] - alpha * eval.grad[i];
            }
            clamp_to_die(&grid, n, &mut u_new);
            for i in 0..2 * n {
                v_new[i] = u_new[i] + coef * (u_new[i] - u[i]);
            }
            clamp_to_die(&grid, n, &mut v_new);
            eval_new = evaluate(netlist, &mut grid, &v_new, options.gamma, lambda, &h);
            let dv = dist(&v_new, &v);
            let dg = dist(&eval_new.grad, &eval.grad);
            // ncs-lint: allow(float-eq) — exact-zero distances mean a stationary point; any ratio would be meaningless
            if dv == 0.0 || dg == 0.0 {
                break;
            }
            let alpha_hat = dv / dg;
            if !alpha_hat.is_finite() || alpha_hat >= 0.95 * alpha || bt >= nopt.max_backtracks {
                break;
            }
            alpha = alpha_hat;
            bt += 1;
        }
        backtracks += bt as u64;
        u.copy_from_slice(&u_new);
        v_prev.copy_from_slice(&v);
        v.copy_from_slice(&v_new);
        g_prev.copy_from_slice(&eval.grad);
        a_k = a_next;
        eval = eval_new;

        // ncs-lint: allow(float-eq) — λ = 0.0 is an exact sentinel for "density not engaged yet"
        if lambda == 0.0 {
            // Density pressure not engaged yet: keep trying to estimate.
            if eval.sum_d > 0.0 && eval.sum_wl > 0.0 {
                lambda = eval.sum_wl / eval.sum_d;
                h = precond(lambda);
            }
        } else {
            // Adaptive ramp: full geometric growth while the overflow is
            // far above target, tapering to none as it closes in — an
            // unconditionally growing λ eventually drowns the wirelength
            // term and scrambles the placement for no density gain.
            let excess = ((eval.overflow - nopt.target_overflow) / (3.0 * nopt.target_overflow))
                .clamp(0.0, 1.0);
            lambda *= 1.0 + (nopt.lambda_growth - 1.0) * excess;
            h = precond(lambda);
        }
        if eval.overflow > peak_overflow {
            // Still clumping: discard earlier snapshots, the descent
            // from this new peak is the one that matters.
            peak_overflow = eval.overflow;
            best_overflow = eval.overflow;
            best_u.copy_from_slice(&u);
        } else if eval.overflow < best_overflow {
            best_overflow = eval.overflow;
            best_u.copy_from_slice(&u);
        }
        if eval.overflow > nopt.target_overflow {
            pressure_engaged = true;
        } else if pressure_engaged {
            // Spread back under target after genuinely clumping: done.
            break;
        }
    }
    ncs_trace::record("place.nesterov_iters", iters as u64);
    ncs_trace::add("place.backtracks", backtracks);
    ncs_trace::record(
        "place.bin_overflow",
        (best_overflow * 1000.0).round().max(0.0) as u64,
    );

    // Legalize the snapshot (a main-sequence iterate; v is a lookahead
    // extrapolation).
    let mut xs = best_u[..n].to_vec();
    let mut ys = best_u[n..].to_vec();
    let moves = legalize::legalize(netlist, &mut xs, &mut ys);
    ncs_trace::record("place.legalize_moves", moves);
    shift_to_positive_quadrant(netlist, &mut xs, &mut ys);
    let final_overlap = overlap_area(netlist, &xs, &ys);
    Placement {
        x: xs,
        y: ys,
        outer_iterations: iters,
        final_overlap_um2: final_overlap,
    }
}

/// Clamps every cell of `p = [x..., y...]` into the density die.
fn clamp_to_die(grid: &DensityGrid, n: usize, p: &mut [f64]) {
    for i in 0..n {
        let (cx, cy) = grid.clamp(i, p[i], p[n + i]);
        p[i] = cx;
        p[n + i] = cy;
    }
}

#[cfg(test)]
mod tests {
    use super::super::{place, PlaceAlgorithm, PlacerOptions};
    use crate::Netlist;
    use ncs_cluster::{CrossbarAssignment, HybridMapping};
    use ncs_tech::TechnologyModel;

    fn mixed_netlist() -> Netlist {
        let xbar_a =
            CrossbarAssignment::new(vec![0, 1, 2], vec![0, 1, 2], 16, vec![(0, 1), (1, 2)]);
        let xbar_b = CrossbarAssignment::new(vec![3, 4], vec![3, 4], 16, vec![(3, 4)]);
        let mapping = HybridMapping::new(8, vec![xbar_a, xbar_b], vec![(5, 6), (6, 7), (5, 7)]);
        Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
    }

    fn nesterov_options() -> PlacerOptions {
        PlacerOptions {
            algorithm: PlaceAlgorithm::Nesterov,
            ..PlacerOptions::default()
        }
    }

    #[test]
    fn nesterov_places_overlap_free() {
        let nl = mixed_netlist();
        let p = place(&nl, &nesterov_options()).unwrap();
        assert!(
            p.final_overlap_um2 < 1e-6,
            "legalized overlap {}",
            p.final_overlap_um2
        );
        assert!(p.outer_iterations > 0);
    }

    #[test]
    fn nesterov_beats_the_initial_grid_on_hpwl() {
        let nl = mixed_netlist();
        let p = place(&nl, &nesterov_options()).unwrap();
        let (gx, gy) = super::super::initial_grid(&nl, 1.2);
        let grid = crate::Placement {
            x: gx,
            y: gy,
            outer_iterations: 0,
            final_overlap_um2: 0.0,
        };
        assert!(
            p.weighted_hpwl(&nl) <= grid.weighted_hpwl(&nl) * 1.05,
            "nesterov {} vs grid {}",
            p.weighted_hpwl(&nl),
            grid.weighted_hpwl(&nl)
        );
    }

    #[test]
    fn nesterov_emits_engine_counters() {
        let nl = mixed_netlist();
        let (_, events) = ncs_trace::capture(|| {
            place(&nl, &nesterov_options()).unwrap();
        });
        let report = ncs_trace::TraceReport::from_events(&events);
        let has = |name: &str| {
            report.counters.iter().any(|c| c.name == name)
                || report.samples.iter().any(|s| s.name == name)
        };
        assert!(has("place.nesterov_iters"));
        assert!(has("place.backtracks"));
        assert!(has("place.bin_overflow"));
        assert!(has("place.legalize_moves"));
        // And none of the CG-reference counters.
        assert!(!has("place.cg_iterations"));
    }

    #[test]
    fn nesterov_handles_pure_small_cell_netlists() {
        let mapping = HybridMapping::new(6, vec![], vec![(0, 1), (2, 3), (4, 5)]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let p = place(&nl, &nesterov_options()).unwrap();
        assert!(p.final_overlap_um2 < 1e-6);
    }

    #[test]
    fn nesterov_handles_single_cell() {
        let mapping = HybridMapping::new(1, vec![], vec![]);
        let nl = Netlist::from_mapping(&mapping, &TechnologyModel::nm45());
        let p = place(&nl, &nesterov_options()).unwrap();
        let (x0, y0, _, _) = p.bounding_box(&nl);
        assert!(x0 >= -1e-9 && y0 >= -1e-9);
    }

    #[test]
    fn nesterov_matches_the_reference_on_hpwl() {
        use ncs_cluster::{Isc, IscOptions};
        let net = ncs_net::generators::planted_clusters(64, 2, 0.4, 0.01, 42)
            .unwrap()
            .0;
        let hybrid = Isc::new(IscOptions {
            seed: 42,
            ..IscOptions::default()
        })
        .run(&net)
        .unwrap();
        let nl = Netlist::from_mapping(&hybrid, &TechnologyModel::nm45());
        let analytic_only = PlacerOptions {
            detailed_swap_passes: 0,
            ..PlacerOptions::default()
        };
        let reference = place(&nl, &analytic_only).unwrap();
        let nesterov = place(
            &nl,
            &PlacerOptions {
                algorithm: PlaceAlgorithm::Nesterov,
                ..analytic_only
            },
        )
        .unwrap();
        assert!(nesterov.final_overlap_um2 < 1e-6);
        // The CI bench gate holds the engine to ≤ 1.01x the reference
        // HPWL on the larger hybrid128 workload; here it comfortably
        // beats the reference outright.
        assert!(
            nesterov.weighted_hpwl(&nl) <= reference.weighted_hpwl(&nl) * 1.01,
            "nesterov {} vs reference {}",
            nesterov.weighted_hpwl(&nl),
            reference.weighted_hpwl(&nl)
        );
    }

    #[test]
    fn nesterov_options_are_validated() {
        let nl = mixed_netlist();
        for bad in [
            PlacerOptions {
                nesterov: super::NesterovOptions {
                    target_density: 0.0,
                    ..Default::default()
                },
                ..nesterov_options()
            },
            PlacerOptions {
                nesterov: super::NesterovOptions {
                    lambda_growth: 1.0,
                    ..Default::default()
                },
                ..nesterov_options()
            },
            PlacerOptions {
                nesterov: super::NesterovOptions {
                    max_iterations: 0,
                    ..Default::default()
                },
                ..nesterov_options()
            },
        ] {
            assert!(place(&nl, &bad).is_err(), "options {:?}", bad.nesterov);
        }
    }
}
