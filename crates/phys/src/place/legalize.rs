//! Deterministic legalization for the Nesterov engine: Tetris packing
//! for crossbar macros, Abacus row packing for standard cells.
//!
//! The reference placer's endgame is an iterative pairwise push-apart —
//! it converges but can take hundreds of sweeps and gives no structural
//! guarantee. This module replaces it with the classic two-stage
//! constructive flow:
//!
//! 1. **Macros (Tetris):** crossbars are processed in left-edge order;
//!    each picks, among candidate rows of y-positions abutting the
//!    already-placed macros, the legal spot minimizing `|Δx| + |Δy|`
//!    displacement. Placed macros never move again.
//! 2. **Standard cells (Abacus):** neurons and synapses pack into
//!    uniform rows (height = the tallest standard cell, bottoms
//!    aligned) whose segments exclude the x-spans blocked by macros.
//!    Within a segment, cells join clusters whose optimal position is
//!    the clamped mean of member targets; overlapping clusters merge in
//!    O(1) amortized per insertion. Rows grow upward on demand, so the
//!    pack never fails.
//!
//! The output is structurally overlap-free: macros are pairwise
//! disjoint by construction, rows partition the standard-cell area into
//! disjoint bands, segments never intersect macros, and cluster packing
//! keeps row neighbors disjoint. Every ordering (macro order, row
//! candidate order, cluster merges) is a pure function of the input
//! coordinates with explicit tie-breaks on cell id — no hash iteration.

use crate::Netlist;

/// Legalizes `xs`/`ys` in place; returns how many cells moved (by bit
/// comparison against the incoming coordinates).
pub(super) fn legalize(netlist: &Netlist, xs: &mut [f64], ys: &mut [f64]) -> u64 {
    let before_x: Vec<u64> = xs.iter().map(|v| v.to_bits()).collect();
    let before_y: Vec<u64> = ys.iter().map(|v| v.to_bits()).collect();
    let mut macros = Vec::new();
    let mut smalls = Vec::new();
    for c in &netlist.cells {
        if matches!(c.kind, ncs_tech::CellKind::Crossbar(_)) {
            macros.push(c.id);
        } else {
            smalls.push(c.id);
        }
    }
    let widths: Vec<f64> = netlist.cells.iter().map(|c| c.dims.width).collect();
    let heights: Vec<f64> = netlist.cells.iter().map(|c| c.dims.height).collect();
    tetris_macros(&macros, &widths, &heights, xs, ys);
    abacus_rows(&smalls, &macros, &widths, &heights, xs, ys);
    let mut moves = 0_u64;
    for i in 0..xs.len() {
        if xs[i].to_bits() != before_x[i] || ys[i].to_bits() != before_y[i] {
            moves += 1;
        }
    }
    moves
}

/// Tetris macro placement: left-edge order, minimum-displacement legal
/// position against the already-placed set.
fn tetris_macros(ids: &[usize], widths: &[f64], heights: &[f64], xs: &mut [f64], ys: &mut [f64]) {
    let mut order = ids.to_vec();
    order.sort_by(|&a, &b| {
        (xs[a] - widths[a] / 2.0)
            .total_cmp(&(xs[b] - widths[b] / 2.0))
            .then(ys[a].total_cmp(&ys[b]))
            .then(a.cmp(&b))
    });
    let mut placed: Vec<usize> = Vec::with_capacity(order.len());
    for &i in &order {
        let (tx, ty) = (xs[i], ys[i]);
        // Candidate y levels: the target itself plus positions abutting
        // each placed macro above and below, nearest-first.
        let mut cand_y = vec![ty];
        for &p in &placed {
            cand_y.push(ys[p] + (heights[p] + heights[i]) / 2.0);
            cand_y.push(ys[p] - (heights[p] + heights[i]) / 2.0);
        }
        cand_y.sort_by(|a, b| {
            (a - ty)
                .abs()
                .total_cmp(&(b - ty).abs())
                .then(a.total_cmp(b))
        });
        cand_y.dedup();
        let mut best: Option<(f64, f64, f64)> = None; // (cost, x, y)
        for &cy in &cand_y {
            let dy = (cy - ty).abs();
            if let Some((bc, _, _)) = best {
                // Candidates are sorted by |Δy| and cost ≥ |Δy|: once the
                // vertical displacement alone exceeds the best cost no
                // later candidate can win.
                if dy >= bc {
                    break;
                }
            }
            let x = nearest_free_x(tx, cy, i, &placed, widths, heights, xs, ys);
            let cost = (x - tx).abs() + dy;
            if best.is_none_or(|(bc, _, _)| cost < bc) {
                best = Some((cost, x, cy));
            }
        }
        // The candidate list always contains the unmoved target level,
        // and nearest_free_x always returns a position, so `best` is
        // Some; fall back to the target defensively anyway.
        let (_, bx, by) = best.unwrap_or((0.0, tx, ty));
        xs[i] = bx;
        ys[i] = by;
        placed.push(i);
    }
}

/// Nearest x to `tx` at level `cy` where macro `i` overlaps no placed
/// macro: forbidden open intervals are merged and the closest edge of
/// the interval containing `tx` (ties toward the left) is taken.
#[allow(clippy::too_many_arguments)]
fn nearest_free_x(
    tx: f64,
    cy: f64,
    i: usize,
    placed: &[usize],
    widths: &[f64],
    heights: &[f64],
    xs: &[f64],
    ys: &[f64],
) -> f64 {
    let mut forbidden: Vec<(f64, f64)> = placed
        .iter()
        .filter(|&&p| (cy - ys[p]).abs() < (heights[i] + heights[p]) / 2.0)
        .map(|&p| {
            let half = (widths[i] + widths[p]) / 2.0;
            (xs[p] - half, xs[p] + half)
        })
        .collect();
    forbidden.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(forbidden.len());
    for (lo, hi) in forbidden {
        match merged.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    for &(lo, hi) in &merged {
        if tx > lo && tx < hi {
            // Strictly inside: snap to the nearer edge, left on ties.
            return if tx - lo <= hi - tx { lo } else { hi };
        }
    }
    tx
}

/// One Abacus cluster: `cells` packed side by side starting at left
/// edge `x`; the unclamped optimum is `q / e` (mean of member targets,
/// each offset by the width of the members before it).
#[derive(Debug, Clone)]
struct Cluster {
    e: f64,
    q: f64,
    w: f64,
    x: f64,
    cells: Vec<usize>,
}

/// One macro-free span of a row.
#[derive(Debug, Clone)]
struct Segment {
    x0: f64,
    x1: f64,
    used: f64,
    clusters: Vec<Cluster>,
}

impl Segment {
    /// Abacus insertion of `cell` with target left edge `tx` and width
    /// `w`, clamped to the segment. Returns the cell's resulting left
    /// edge. Mutates the cluster list (callers trial on a clone).
    fn insert(&mut self, cell: usize, tx: f64, w: f64) -> f64 {
        let tx = tx.clamp(self.x0, (self.x1 - w).max(self.x0));
        match self.clusters.last_mut() {
            Some(last) if last.x + last.w > tx => {
                last.q += tx - last.w;
                last.e += 1.0;
                last.w += w;
                last.cells.push(cell);
            }
            _ => self.clusters.push(Cluster {
                e: 1.0,
                q: tx,
                w,
                x: tx,
                cells: vec![cell],
            }),
        }
        self.used += w;
        self.collapse();
        // The inserted cell is the last member of the last cluster
        // (collapse only ever merges the tail backward), so its left
        // edge is the cluster's right edge minus its own width.
        match self.clusters.last() {
            Some(c) => {
                debug_assert_eq!(c.cells.last().copied(), Some(cell));
                c.x + c.w - w
            }
            None => tx,
        }
    }

    /// Re-clamps the last cluster and merges it into its predecessor
    /// while they overlap (standard Abacus collapse).
    fn collapse(&mut self) {
        loop {
            let k = self.clusters.len();
            let c = &mut self.clusters[k - 1];
            c.x = (c.q / c.e).clamp(self.x0, (self.x1 - c.w).max(self.x0));
            if k == 1 {
                return;
            }
            let (head, tail) = self.clusters.split_at_mut(k - 1);
            let prev = &mut head[k - 2];
            let cur = &tail[0];
            if prev.x + prev.w <= cur.x {
                return;
            }
            prev.q += cur.q - cur.e * prev.w;
            prev.e += cur.e;
            prev.w += cur.w;
            prev.cells.extend(cur.cells.iter().copied());
            self.clusters.pop();
        }
    }
}

/// Abacus row legalization of the standard cells around the (already
/// legal) macros.
fn abacus_rows(
    smalls: &[usize],
    macros: &[usize],
    widths: &[f64],
    heights: &[f64],
    xs: &mut [f64],
    ys: &mut [f64],
) {
    if smalls.is_empty() {
        return;
    }
    let h_row = smalls
        .iter()
        .map(|&i| heights[i])
        .fold(0.0_f64, f64::max)
        .max(1e-6);
    let max_w = smalls.iter().map(|&i| widths[i]).fold(0.0_f64, f64::max);
    // The row region covers every current position (macros included) —
    // widened if too narrow to hold the widest cell comfortably. The
    // row baseline comes from the standard cells alone so that
    // re-legalizing an already-rowed placement reproduces the same
    // rows (idempotence / stable order).
    let mut x0 = f64::INFINITY;
    let mut x1 = f64::NEG_INFINITY;
    let mut y0 = f64::INFINITY;
    for &i in smalls.iter().chain(macros) {
        x0 = x0.min(xs[i] - widths[i] / 2.0);
        x1 = x1.max(xs[i] + widths[i] / 2.0);
    }
    for &i in smalls {
        y0 = y0.min(ys[i] - heights[i] / 2.0);
    }
    let total_w: f64 = smalls.iter().map(|&i| widths[i]).sum();
    let min_span = (max_w * 2.0).max(total_w.sqrt() * h_row.sqrt());
    if x1 - x0 < min_span {
        let grow = (min_span - (x1 - x0)) / 2.0;
        x0 -= grow;
        x1 += grow;
    }

    // A row's segments: [x0, x1] minus the x-spans of macros whose
    // vertical extent overlaps the row band.
    let segments_for = |y_bot: f64| -> Vec<Segment> {
        let y_top = y_bot + h_row;
        let mut cuts: Vec<(f64, f64)> = macros
            .iter()
            .filter(|&&m| ys[m] - heights[m] / 2.0 < y_top && ys[m] + heights[m] / 2.0 > y_bot)
            .map(|&m| (xs[m] - widths[m] / 2.0, xs[m] + widths[m] / 2.0))
            .collect();
        cuts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut segs = Vec::new();
        let mut cursor = x0;
        for (lo, hi) in cuts {
            if lo > cursor {
                segs.push((cursor, lo.min(x1)));
            }
            cursor = cursor.max(hi);
        }
        if cursor < x1 {
            segs.push((cursor, x1));
        }
        segs.into_iter()
            .filter(|&(a, b)| b - a > 1e-9)
            .map(|(a, b)| Segment {
                x0: a,
                x1: b,
                used: 0.0,
                clusters: Vec::new(),
            })
            .collect()
    };

    let row_bot = |k: usize| y0 + k as f64 * h_row;
    // Rows must cover the whole vertical span of the targets up front —
    // otherwise every cell would fold down into the lowest row (rows
    // further grow upward on demand when capacity runs out).
    let y_top = smalls
        .iter()
        .map(|&i| ys[i] + heights[i] / 2.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let k_init = (((y_top - y0) / h_row).ceil().max(1.0)) as usize;
    let mut rows: Vec<Vec<Segment>> = (0..k_init).map(|k| segments_for(row_bot(k))).collect();

    let mut order = smalls.to_vec();
    order.sort_by(|&a, &b| {
        (xs[a] - widths[a] / 2.0)
            .total_cmp(&(xs[b] - widths[b] / 2.0))
            .then(ys[a].total_cmp(&ys[b]))
            .then(a.cmp(&b))
    });

    for &i in &order {
        let w = widths[i];
        let tx = xs[i] - w / 2.0;
        loop {
            // Rows ordered by vertical displacement for this cell.
            let mut by_dy: Vec<(f64, usize)> = (0..rows.len())
                .map(|k| {
                    let cy = row_bot(k) + heights[i] / 2.0;
                    ((cy - ys[i]).abs(), k)
                })
                .collect();
            by_dy.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut best: Option<(f64, usize, usize, f64)> = None; // cost, row, seg, x
            for &(dy, k) in &by_dy {
                if let Some((bc, ..)) = best {
                    if dy >= bc {
                        break;
                    }
                }
                for (si, seg) in rows[k].iter().enumerate() {
                    if seg.used + w > seg.x1 - seg.x0 {
                        continue;
                    }
                    let mut trial = seg.clone();
                    let x_left = trial.insert(i, tx, w);
                    let cost = (x_left - tx).abs() + dy;
                    if best.is_none_or(|(bc, ..)| cost < bc) {
                        best = Some((cost, k, si, x_left));
                    }
                }
            }
            if let Some((_, k, si, _)) = best {
                rows[k][si].insert(i, tx, w);
                break;
            }
            // Every existing row is full here: grow the region upward.
            let k = rows.len();
            rows.push(segments_for(row_bot(k)));
        }
    }

    // Resolve final coordinates: clusters pack members left to right in
    // insertion order.
    for (k, row) in rows.iter().enumerate() {
        let y_bot = row_bot(k);
        for seg in row {
            for c in &seg.clusters {
                let mut x = c.x;
                for &m in &c.cells {
                    xs[m] = x + widths[m] / 2.0;
                    ys[m] = y_bot + heights[m] / 2.0;
                    x += widths[m];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::overlap_area;
    use crate::Netlist;
    use ncs_cluster::{CrossbarAssignment, HybridMapping};
    use ncs_tech::TechnologyModel;

    /// Seeded pseudo-random mixed netlist with `nx` crossbars and
    /// `extra` outlier neurons/synapses.
    fn random_netlist(nx: usize, neurons: usize, seed: u64) -> Netlist {
        let mut s = seed | 1;
        let mut next = move |m: usize| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as usize) % m
        };
        let mut xbars = Vec::new();
        for b in 0..nx {
            let members: Vec<usize> = (0..4).map(|i| (b * 4 + i) % neurons).collect();
            let conns: Vec<(usize, usize)> = (0..6)
                .map(|_| (members[next(4)], members[next(4)]))
                .collect();
            xbars.push(CrossbarAssignment::new(members.clone(), members, 16, conns));
        }
        let outliers: Vec<(usize, usize)> = (0..2 * neurons)
            .map(|_| (next(neurons), next(neurons)))
            .filter(|&(f, t)| f != t)
            .collect();
        let mapping = HybridMapping::new(neurons, xbars, outliers);
        Netlist::from_mapping(&mapping, &TechnologyModel::nm45())
    }

    /// Seeded pseudo-random starting coordinates (a worst case: heavy
    /// overlap, no structure).
    fn random_coords(n: usize, spread: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * spread
        };
        (
            (0..n).map(|_| next()).collect(),
            (0..n).map(|_| next()).collect(),
        )
    }

    #[test]
    fn legalized_result_has_zero_overlap() {
        for seed in [1u64, 9, 23, 77] {
            let nl = random_netlist(3, 24, seed);
            let n = nl.cells.len();
            let (mut xs, mut ys) = random_coords(n, 30.0, seed ^ 0x5a);
            legalize(&nl, &mut xs, &mut ys);
            let overlap = overlap_area(&nl, &xs, &ys);
            assert!(overlap < 1e-9, "seed {seed}: overlap {overlap}");
        }
    }

    #[test]
    fn standard_cells_align_to_rows() {
        let nl = random_netlist(2, 20, 5);
        let n = nl.cells.len();
        let (mut xs, mut ys) = random_coords(n, 25.0, 11);
        legalize(&nl, &mut xs, &mut ys);
        let smalls: Vec<usize> = nl
            .cells
            .iter()
            .filter(|c| !matches!(c.kind, ncs_tech::CellKind::Crossbar(_)))
            .map(|c| c.id)
            .collect();
        let h_row = smalls
            .iter()
            .map(|&i| nl.cells[i].dims.height)
            .fold(0.0_f64, f64::max);
        // Every standard cell's bottom sits on a multiple of the row
        // height above the common base line.
        let base = smalls
            .iter()
            .map(|&i| ys[i] - nl.cells[i].dims.height / 2.0)
            .fold(f64::INFINITY, f64::min);
        for &i in &smalls {
            let bot = ys[i] - nl.cells[i].dims.height / 2.0;
            let steps = (bot - base) / h_row;
            assert!(
                (steps - steps.round()).abs() < 1e-6,
                "cell {i} bottom {bot} is off-row (base {base}, h {h_row})"
            );
        }
    }

    #[test]
    fn row_capacity_is_respected() {
        // Total width packed into any single row band never exceeds the
        // region span (the capacity check plus row growth guarantee it).
        let nl = random_netlist(0, 40, 3);
        let n = nl.cells.len();
        let (mut xs, mut ys) = random_coords(n, 8.0, 17);
        legalize(&nl, &mut xs, &mut ys);
        use std::collections::BTreeMap;
        let mut row_used: BTreeMap<i64, f64> = BTreeMap::new();
        let mut row_span: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
        for c in &nl.cells {
            let key = (ys[c.id] * 1e6).round() as i64;
            *row_used.entry(key).or_default() += c.dims.width;
            let e = row_span
                .entry(key)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY));
            e.0 = e.0.min(xs[c.id] - c.dims.width / 2.0);
            e.1 = e.1.max(xs[c.id] + c.dims.width / 2.0);
        }
        for (key, used) in &row_used {
            let (lo, hi) = row_span[key];
            assert!(
                *used <= hi - lo + 1e-6,
                "row {key}: used {used} exceeds span {}",
                hi - lo
            );
        }
    }

    #[test]
    fn legalization_is_stable_and_deterministic() {
        let nl = random_netlist(3, 24, 41);
        let n = nl.cells.len();
        let (xs0, ys0) = random_coords(n, 30.0, 43);
        let run = || {
            let mut xs = xs0.clone();
            let mut ys = ys0.clone();
            let moves = legalize(&nl, &mut xs, &mut ys);
            (
                moves,
                xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
                ys.iter().map(|v| v.to_bits()).collect::<Vec<u64>>(),
            )
        };
        assert_eq!(
            run(),
            run(),
            "legalization is not a pure function of its input"
        );
    }

    #[test]
    fn legalizing_a_legal_placement_moves_nothing() {
        // Macros already disjoint, standard cells already in rows: the
        // legalizer must keep everyone in place (stable order).
        let nl = random_netlist(2, 12, 7);
        let n = nl.cells.len();
        let mut xs = vec![0.0; n];
        let mut ys = vec![0.0; n];
        // First legalization establishes a legal configuration...
        let (rx, ry) = random_coords(n, 20.0, 3);
        xs.copy_from_slice(&rx);
        ys.copy_from_slice(&ry);
        legalize(&nl, &mut xs, &mut ys);
        // ...re-legalizing it is then idempotent up to row re-basing.
        let mut xs2 = xs.clone();
        let mut ys2 = ys.clone();
        legalize(&nl, &mut xs2, &mut ys2);
        let overlap = overlap_area(&nl, &xs2, &ys2);
        assert!(overlap < 1e-9);
        for i in 0..n {
            assert!(
                (xs2[i] - xs[i]).abs() < 1e-6 && (ys2[i] - ys[i]).abs() < 1e-6,
                "cell {i} drifted: ({}, {}) -> ({}, {})",
                xs[i],
                ys[i],
                xs2[i],
                ys2[i]
            );
        }
    }

    #[test]
    fn macros_only_netlist_legalizes() {
        let nl = random_netlist(4, 16, 13);
        // Keep only crossbars by stacking everything; legalize must
        // separate the macros regardless of the standard cells.
        let n = nl.cells.len();
        let mut xs = vec![0.0; n];
        let mut ys = vec![0.0; n];
        legalize(&nl, &mut xs, &mut ys);
        assert!(overlap_area(&nl, &xs, &ys) < 1e-9);
    }
}
