//! Test oracles for the CG placer's objective kernels: the plain
//! formulations that [`super::wa_wirelength`], [`super::density`] and
//! [`super::fold_chunks`] must reproduce bit for bit — four `exp`s and
//! fresh vectors per wire span, a spatial hash swept over every pair in
//! the 3×3 coarse neighbourhood, and a full-length scratch folded slot
//! by slot per chunk.

use super::{bell, DENSITY_GRAIN, WL_GRAIN};
use crate::{CellId, Netlist};

/// Chunked fold over a full zeroed scratch, every slot added per chunk.
fn fold_chunks<T>(
    items: &[T],
    grain: usize,
    grad: Option<&mut [f64]>,
    chunk: impl Fn(&[T], Option<&mut [f64]>) -> f64,
) -> f64 {
    let mut total = 0.0;
    match grad {
        Some(g) => {
            let mut scratch = vec![0.0; g.len()];
            for part in items.chunks(grain) {
                scratch.fill(0.0);
                total += chunk(part, Some(&mut scratch));
                for (slot, s) in g.iter_mut().zip(&scratch) {
                    *slot += s;
                }
            }
        }
        None => {
            for part in items.chunks(grain) {
                total += chunk(part, None);
            }
        }
    }
    total
}

/// Weighted-average wirelength over all wires.
pub(super) fn wa_wirelength(
    netlist: &Netlist,
    p: &[f64],
    gamma: f64,
    grad: Option<&mut [f64]>,
) -> f64 {
    let n = netlist.cells.len();
    let (xs, ys) = p.split_at(n);
    fold_chunks(&netlist.wires, WL_GRAIN, grad, |wires, mut scratch| {
        let mut total = 0.0;
        for wire in wires {
            for (coords, offset) in [(xs, 0usize), (ys, n)] {
                let (span, derivs) = wa_span(&wire.pins, coords, gamma);
                total += wire.weight * span;
                if let Some(g) = scratch.as_deref_mut() {
                    for (&pin, d) in wire.pins.iter().zip(&derivs) {
                        g[offset + pin] += wire.weight * d;
                    }
                }
            }
        }
        total
    })
}

/// WA smooth max-minus-min of one coordinate over a pin set, with per-pin
/// derivatives.
pub(super) fn wa_span(pins: &[CellId], coords: &[f64], gamma: f64) -> (f64, Vec<f64>) {
    let vals: Vec<f64> = pins.iter().map(|&p| coords[p]).collect();
    let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
    let ep: Vec<f64> = vals.iter().map(|&v| ((v - max) / gamma).exp()).collect();
    let sp: f64 = ep.iter().sum();
    let sxp: f64 = vals.iter().zip(&ep).map(|(v, e)| v * e).sum();
    let wa_max = sxp / sp;
    let em: Vec<f64> = vals.iter().map(|&v| (-(v - min) / gamma).exp()).collect();
    let sm: f64 = em.iter().sum();
    let sxm: f64 = vals.iter().zip(&em).map(|(v, e)| v * e).sum();
    let wa_min = sxm / sm;
    let span = wa_max - wa_min;
    let derivs = vals
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let dmax = (ep[i] / sp) * (1.0 + (v - wa_max) / gamma);
            let dmin = (em[i] / sm) * (1.0 - (v - wa_min) / gamma);
            dmax - dmin
        })
        .collect();
    (span, derivs)
}

/// Pairwise sigmoid density over a spatial hash whose bucket is the
/// largest virtual extent; every pair in a cell's 3×3 bucket
/// neighbourhood is tested.
pub(super) fn density(netlist: &Netlist, p: &[f64], omega: f64, grad: Option<&mut [f64]>) -> f64 {
    let n = netlist.cells.len();
    let (xs, ys) = p.split_at(n);
    let max_ext = netlist
        .cells
        .iter()
        .map(|c| c.dims.width.max(c.dims.height))
        .fold(0.0_f64, f64::max)
        * omega;
    let bucket = max_ext.max(1.0);
    let mut hash: std::collections::BTreeMap<(i64, i64), Vec<CellId>> =
        std::collections::BTreeMap::new();
    for cell in &netlist.cells {
        let key = (
            (xs[cell.id] / bucket).floor() as i64,
            (ys[cell.id] / bucket).floor() as i64,
        );
        hash.entry(key).or_default().push(cell.id);
    }
    fold_chunks(&netlist.cells, DENSITY_GRAIN, grad, |cells, mut scratch| {
        let mut total = 0.0;
        for cell in cells {
            let i = cell.id;
            let kx = (xs[i] / bucket).floor() as i64;
            let ky = (ys[i] / bucket).floor() as i64;
            for dx in -1..=1 {
                for dy in -1..=1 {
                    let Some(others) = hash.get(&(kx + dx, ky + dy)) else {
                        continue;
                    };
                    for &j in others {
                        if j <= i {
                            continue;
                        }
                        let cj = &netlist.cells[j];
                        let wx = omega * (cell.dims.width + cj.dims.width) / 2.0;
                        let wy = omega * (cell.dims.height + cj.dims.height) / 2.0;
                        let tx = xs[i] - xs[j];
                        let ty = ys[i] - ys[j];
                        if tx.abs() >= wx || ty.abs() >= wy {
                            continue;
                        }
                        let (ox, dox) = bell(tx, wx);
                        let (oy, doy) = bell(ty, wy);
                        let aij = cell.dims.area().min(cj.dims.area());
                        total += aij * ox * oy;
                        if let Some(g) = scratch.as_deref_mut() {
                            let gx = aij * dox * tx.signum() * oy;
                            let gy = aij * ox * doy * ty.signum();
                            g[i] += gx;
                            g[j] -= gx;
                            g[n + i] += gy;
                            g[n + j] -= gy;
                        }
                    }
                }
            }
        }
        total
    })
}

#[cfg(test)]
mod tests {
    use super::super::{density, wa_span2, wa_wirelength};
    use crate::{Cell, Netlist, Wire};
    use ncs_cluster::{CrossbarAssignment, HybridMapping};
    use ncs_tech::{CellKind, TechnologyModel};

    const OMEGA: f64 = 1.2;
    const GAMMA: f64 = 2.0;

    /// Deterministic uniform draws in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, m: usize) -> usize {
            ((self.next() * m as f64) as usize).min(m - 1)
        }
    }

    /// Neurons, crossbars of sizes 8, 16, 32 and 64, and discrete
    /// synapses; `shared` folds each neuron's wires into one multi-pin
    /// net.
    fn mixed_netlist(seed: u64, neurons: usize, shared: bool) -> Netlist {
        let mut rng = Lcg(seed);
        let mut xbars = Vec::new();
        for (b, size) in [8usize, 16, 32, 64, 16, 8].into_iter().enumerate() {
            let members: Vec<usize> = (0..4).map(|k| (b * 4 + k) % neurons).collect();
            let conns = vec![(members[0], members[1]), (members[2], members[3])];
            xbars.push(CrossbarAssignment::new(
                members.clone(),
                members,
                size,
                conns,
            ));
        }
        let outliers: Vec<(usize, usize)> = (0..neurons)
            .map(|_| (rng.below(neurons), rng.below(neurons)))
            .collect();
        let mapping = HybridMapping::new(neurons, xbars, outliers);
        let tech = TechnologyModel::nm45();
        if shared {
            Netlist::from_mapping_shared(&mapping, &tech)
        } else {
            Netlist::from_mapping(&mapping, &tech)
        }
    }

    /// A netlist of crossbar macros only, chained by two-pin wires.
    fn all_macro_netlist() -> Netlist {
        let tech = TechnologyModel::nm45();
        let cells: Vec<Cell> = [4usize, 8, 16, 32, 64, 64, 32, 16, 8, 4]
            .into_iter()
            .enumerate()
            .map(|(id, size)| Cell {
                id,
                kind: CellKind::Crossbar(size),
                dims: tech.dims(CellKind::Crossbar(size)),
                source: id,
            })
            .collect();
        let wires = (1..cells.len())
            .map(|k| Wire {
                id: k - 1,
                pins: vec![k - 1, k],
                weight: 1.0 + k as f64 / 8.0,
            })
            .collect();
        Netlist { cells, wires }
    }

    /// Neurons and synapses only.
    fn all_small_netlist(seed: u64) -> Netlist {
        let mut rng = Lcg(seed);
        let neurons = 40;
        let outliers: Vec<(usize, usize)> = (0..60)
            .map(|_| (rng.below(neurons), rng.below(neurons)))
            .collect();
        let mapping = HybridMapping::new(neurons, vec![], outliers);
        Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
    }

    /// Coordinates `[x..., y...]` uniform in a square of side `extent`
    /// centred on `(cx, cy)`.
    fn layout(nl: &Netlist, seed: u64, extent: f64, cx: f64, cy: f64) -> Vec<f64> {
        let mut rng = Lcg(seed);
        let n = nl.cells.len();
        (0..2 * n)
            .map(|k| {
                let c = if k < n { cx } else { cy };
                c + (rng.next() - 0.5) * extent
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Value and gradient of both kernels match their oracles bit for
    /// bit, with and without a gradient buffer.
    fn assert_kernels_match(nl: &Netlist, p: &[f64], what: &str) {
        let len = p.len();
        let (mut g_new, mut g_ref) = (vec![0.0; len], vec![0.0; len]);
        let d_new = density(nl, p, OMEGA, Some(&mut g_new));
        let d_ref = super::density(nl, p, OMEGA, Some(&mut g_ref));
        assert_eq!(d_new.to_bits(), d_ref.to_bits(), "{what}: density value");
        assert_eq!(bits(&g_new), bits(&g_ref), "{what}: density gradient");
        let d_none = density(nl, p, OMEGA, None);
        assert_eq!(
            d_none.to_bits(),
            d_ref.to_bits(),
            "{what}: density, no grad"
        );

        let (mut g_new, mut g_ref) = (vec![0.0; len], vec![0.0; len]);
        let w_new = wa_wirelength(nl, p, GAMMA, Some(&mut g_new));
        let w_ref = super::wa_wirelength(nl, p, GAMMA, Some(&mut g_ref));
        assert_eq!(w_new.to_bits(), w_ref.to_bits(), "{what}: WL value");
        assert_eq!(bits(&g_new), bits(&g_ref), "{what}: WL gradient");
        let w_none = wa_wirelength(nl, p, GAMMA, None);
        assert_eq!(w_none.to_bits(), w_ref.to_bits(), "{what}: WL, no grad");
    }

    #[test]
    fn kernels_match_oracle_on_mixed_size_layouts() {
        for seed in [1u64, 7, 42] {
            for shared in [false, true] {
                let nl = mixed_netlist(seed, 60, shared);
                // Clumped (heavy overlap), moderate, negative-centred,
                // and spread far enough to coarsen the bucket grid.
                for (k, (extent, cx, cy)) in [
                    (8.0, 0.0, 0.0),
                    (60.0, 3.0, -2.0),
                    (40.0, -500.0, -1234.5),
                    (20_000.0, 0.0, 0.0),
                ]
                .into_iter()
                .enumerate()
                {
                    let p = layout(&nl, seed * 31 + k as u64, extent, cx, cy);
                    let what = format!("seed {seed} shared {shared} layout {k}");
                    assert_kernels_match(&nl, &p, &what);
                }
            }
        }
    }

    #[test]
    fn kernels_match_oracle_on_single_class_netlists() {
        let macros = all_macro_netlist();
        for (k, extent) in [10.0, 80.0, 400.0].into_iter().enumerate() {
            let p = layout(&macros, 5 + k as u64, extent, -20.0, 15.0);
            assert_kernels_match(&macros, &p, &format!("all-macro {k}"));
        }
        let smalls = all_small_netlist(9);
        for (k, extent) in [6.0, 30.0, 5_000.0].into_iter().enumerate() {
            let p = layout(&smalls, 11 + k as u64, extent, 4.0, -7.0);
            assert_kernels_match(&smalls, &p, &format!("all-small {k}"));
        }
    }

    #[test]
    fn kernels_match_oracle_on_coincident_and_touching_cells() {
        let nl = mixed_netlist(3, 24, false);
        let n = nl.cells.len();
        let mut p = layout(&nl, 77, 30.0, 0.0, 0.0);
        // Coincident: several cells stacked on cell 0.
        for k in [1, 5, n - 1, n / 2] {
            p[k] = p[0];
            p[n + k] = p[n];
        }
        // Exactly |t| == w on x for cells 2 and 3, on y for 3 and 4,
        // and on both axes for a neuron and a crossbar.
        let w = |a: usize, b: usize, x: bool| {
            let (da, db) = (&nl.cells[a].dims, &nl.cells[b].dims);
            if x {
                OMEGA * (da.width + db.width) / 2.0
            } else {
                OMEGA * (da.height + db.height) / 2.0
            }
        };
        p[2] = 0.0;
        p[3] = w(2, 3, true);
        p[n + 2] = 0.0;
        p[n + 3] = 0.0;
        p[4] = p[3];
        p[n + 4] = p[n + 3] - w(3, 4, false);
        let xbar = nl
            .cells
            .iter()
            .position(|c| matches!(c.kind, CellKind::Crossbar(_)))
            .unwrap();
        p[6] = -10.0;
        p[n + 6] = 10.0;
        p[xbar] = -10.0 - w(6, xbar, true);
        p[n + xbar] = 10.0 + w(6, xbar, false);
        assert_kernels_match(&nl, &p, "coincident/touching");
    }

    #[test]
    fn wirelength_matches_oracle_on_wide_and_duplicate_pin_wires() {
        let mut nl = mixed_netlist(13, 30, false);
        for (k, pins) in [
            vec![0, 1, 2],
            vec![3, 4, 5, 6],
            vec![7, 7, 8],
            vec![9, 10, 9, 11],
            vec![12, 12],
        ]
        .into_iter()
        .enumerate()
        {
            let id = nl.wires.len();
            nl.wires.push(Wire {
                id,
                pins,
                weight: 0.5 + k as f64,
            });
        }
        for (k, extent) in [5.0, 50.0, 500.0].into_iter().enumerate() {
            let p = layout(&nl, 100 + k as u64, extent, -3.0, 8.0);
            assert_kernels_match(&nl, &p, &format!("multi-pin {k}"));
        }
    }

    #[test]
    fn two_pin_span_matches_oracle_span() {
        let mut rng = Lcg(2024);
        let mut cases = vec![
            (0.0, 0.0),
            (-0.0, 0.0),
            (1.5, 1.5),
            (1e-300, -1e-300),
            (3.0, -4.0),
            (-4.0, 3.0),
            (1e6, 1e6 + 1e-9),
        ];
        for _ in 0..200 {
            cases.push(((rng.next() - 0.5) * 40.0, (rng.next() - 0.5) * 40.0));
        }
        for (va, vb) in cases {
            for gamma in [0.5, 2.0, 7.25] {
                let (span, da, db) = wa_span2(va, vb, gamma);
                let (span_ref, d_ref) = super::wa_span(&[0, 1], &[va, vb], gamma);
                assert_eq!(span.to_bits(), span_ref.to_bits(), "{va} {vb} {gamma}");
                assert_eq!(
                    [da.to_bits(), db.to_bits()],
                    [d_ref[0].to_bits(), d_ref[1].to_bits()],
                    "{va} {vb} {gamma}"
                );
            }
        }
    }

    #[test]
    fn non_finite_coordinates_give_non_finite_wirelength() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (va, vb) in [(bad, 1.0), (1.0, bad), (bad, bad)] {
                let (span, _, _) = wa_span2(va, vb, GAMMA);
                assert!(!span.is_finite(), "span({va}, {vb}) = {span}");
            }
            let nl = mixed_netlist(5, 20, true);
            let n = nl.cells.len();
            for slot in [0, 3, n + 1] {
                let mut p = layout(&nl, 8, 20.0, 0.0, 0.0);
                p[slot] = bad;
                let mut g = vec![0.0; 2 * n];
                let wl = wa_wirelength(&nl, &p, GAMMA, Some(&mut g));
                assert!(!wl.is_finite(), "WL with {bad} at {slot} = {wl}");
            }
        }
    }
}
