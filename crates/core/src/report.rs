use std::fmt;

use crate::FlowResult;

/// Table 1-style comparison of an AutoNCS run against the FullCro
/// baseline on the same network.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// The AutoNCS flow result.
    pub autoncs: FlowResult,
    /// The FullCro baseline flow result.
    pub baseline: FlowResult,
}

impl ComparisonReport {
    /// Fractional wirelength reduction (positive means AutoNCS is better).
    pub fn wirelength_reduction(&self) -> f64 {
        reduction(
            self.baseline.design.cost.wirelength_um,
            self.autoncs.design.cost.wirelength_um,
        )
    }

    /// Fractional placement-area reduction.
    pub fn area_reduction(&self) -> f64 {
        reduction(
            self.baseline.design.cost.area_um2,
            self.autoncs.design.cost.area_um2,
        )
    }

    /// Fractional average-wire-delay reduction.
    pub fn delay_reduction(&self) -> f64 {
        reduction(
            self.baseline.design.cost.average_delay_ns,
            self.autoncs.design.cost.average_delay_ns,
        )
    }

    /// The raw, exactly round-tripping numbers of this comparison, one
    /// `label key value` line each: AutoNCS and FullCro wirelength, area
    /// and delay (floats printed with `{:?}`, the shortest form that
    /// parses back to the same bits), the ISC iteration count, the
    /// outlier ratio and the crossbar size histogram. This is the format
    /// of the Table 1 golden artifact, so any change to a pinned result
    /// shows up as a textual diff.
    pub fn golden_record(&self, label: &str) -> String {
        let mut out = String::new();
        for (design, flow) in [("autoncs", &self.autoncs), ("fullcro", &self.baseline)] {
            let cost = &flow.design.cost;
            out.push_str(&format!(
                "{label} {design}.wirelength_um {:?}\n",
                cost.wirelength_um
            ));
            out.push_str(&format!("{label} {design}.area_um2 {:?}\n", cost.area_um2));
            out.push_str(&format!(
                "{label} {design}.delay_ns {:?}\n",
                cost.average_delay_ns
            ));
        }
        let iterations = self
            .autoncs
            .trace
            .as_ref()
            .map_or(0, |t| t.iterations.len());
        out.push_str(&format!("{label} isc.iterations {iterations}\n"));
        out.push_str(&format!(
            "{label} isc.outlier_ratio {:?}\n",
            self.autoncs.mapping.outlier_ratio()
        ));
        let histogram: Vec<String> = self
            .autoncs
            .mapping
            .size_histogram()
            .iter()
            .map(|(size, count)| format!("{size}x{count}"))
            .collect();
        out.push_str(&format!(
            "{label} isc.crossbar_sizes {}\n",
            histogram.join(" ")
        ));
        out
    }

    /// Renders one [`CostTableRow`] for this comparison.
    pub fn to_row(&self, label: impl Into<String>) -> CostTableRow {
        CostTableRow {
            label: label.into(),
            autoncs_wirelength_um: self.autoncs.design.cost.wirelength_um,
            baseline_wirelength_um: self.baseline.design.cost.wirelength_um,
            autoncs_area_um2: self.autoncs.design.cost.area_um2,
            baseline_area_um2: self.baseline.design.cost.area_um2,
            autoncs_delay_ns: self.autoncs.design.cost.average_delay_ns,
            baseline_delay_ns: self.baseline.design.cost.average_delay_ns,
        }
    }
}

fn reduction(baseline: f64, ours: f64) -> f64 {
    // ncs-lint: allow(float-eq) — exact-zero baseline guards the division
    if baseline == 0.0 {
        0.0
    } else {
        1.0 - ours / baseline
    }
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTableRow {
    /// Row label (e.g. "testbench 1").
    pub label: String,
    /// AutoNCS total wirelength, µm.
    pub autoncs_wirelength_um: f64,
    /// Baseline total wirelength, µm.
    pub baseline_wirelength_um: f64,
    /// AutoNCS placement area, µm².
    pub autoncs_area_um2: f64,
    /// Baseline placement area, µm².
    pub baseline_area_um2: f64,
    /// AutoNCS average wire delay, ns.
    pub autoncs_delay_ns: f64,
    /// Baseline average wire delay, ns.
    pub baseline_delay_ns: f64,
}

impl CostTableRow {
    /// `(wirelength, area, delay)` reductions as fractions.
    pub fn reductions(&self) -> (f64, f64, f64) {
        (
            reduction(self.baseline_wirelength_um, self.autoncs_wirelength_um),
            reduction(self.baseline_area_um2, self.autoncs_area_um2),
            reduction(self.baseline_delay_ns, self.autoncs_delay_ns),
        )
    }
}

/// A Table 1 reproduction: one row per testbench plus averages.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostTable {
    /// Rows, one per workload.
    pub rows: Vec<CostTableRow>,
}

impl CostTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn push(&mut self, row: CostTableRow) {
        self.rows.push(row);
    }

    /// Average `(wirelength, area, delay)` reductions across rows.
    pub fn average_reductions(&self) -> (f64, f64, f64) {
        if self.rows.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut acc = (0.0, 0.0, 0.0);
        for row in &self.rows {
            let r = row.reductions();
            acc.0 += r.0;
            acc.1 += r.1;
            acc.2 += r.2;
        }
        let n = self.rows.len() as f64;
        (acc.0 / n, acc.1 / n, acc.2 / n)
    }

    /// Renders the table as CSV (same columns as Table 1 in the paper).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "testbench,design,total_wirelength_um,area_um2,delay_ns,wl_reduction_pct,area_reduction_pct,delay_reduction_pct\n",
        );
        for row in &self.rows {
            let (rw, ra, rd) = row.reductions();
            out.push_str(&format!(
                "{},AutoNCS,{:.1},{:.2},{:.3},{:.2},{:.2},{:.2}\n",
                row.label,
                row.autoncs_wirelength_um,
                row.autoncs_area_um2,
                row.autoncs_delay_ns,
                rw * 100.0,
                ra * 100.0,
                rd * 100.0
            ));
            out.push_str(&format!(
                "{},FullCro,{:.1},{:.2},{:.3},,,\n",
                row.label, row.baseline_wirelength_um, row.baseline_area_um2, row.baseline_delay_ns
            ));
        }
        out
    }
}

impl fmt::Display for CostTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<14} {:>14} {:>14} {:>9}  (reduction vs FullCro)",
            "testbench", "wirelength/um", "area/um2", "delay/ns"
        )?;
        for row in &self.rows {
            let (rw, ra, rd) = row.reductions();
            writeln!(
                f,
                "{:<14} {:>14.1} {:>14.1} {:>9.3}",
                format!("{} AutoNCS", row.label),
                row.autoncs_wirelength_um,
                row.autoncs_area_um2,
                row.autoncs_delay_ns
            )?;
            writeln!(
                f,
                "{:<14} {:>14.1} {:>14.1} {:>9.3}",
                format!("{} FullCro", row.label),
                row.baseline_wirelength_um,
                row.baseline_area_um2,
                row.baseline_delay_ns
            )?;
            writeln!(
                f,
                "{:<14} {:>13.2}% {:>13.2}% {:>8.2}%",
                format!("{} Reduc.", row.label),
                rw * 100.0,
                ra * 100.0,
                rd * 100.0
            )?;
        }
        let (aw, aa, ad) = self.average_reductions();
        writeln!(
            f,
            "{:<14} {:>13.2}% {:>13.2}% {:>8.2}%",
            "average",
            aw * 100.0,
            aa * 100.0,
            ad * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str) -> CostTableRow {
        CostTableRow {
            label: label.to_string(),
            autoncs_wirelength_um: 50.0,
            baseline_wirelength_um: 100.0,
            autoncs_area_um2: 75.0,
            baseline_area_um2: 100.0,
            autoncs_delay_ns: 1.0,
            baseline_delay_ns: 2.0,
        }
    }

    #[test]
    fn reductions_are_fractions() {
        let (w, a, d) = row("tb").reductions();
        assert!((w - 0.5).abs() < 1e-12);
        assert!((a - 0.25).abs() < 1e-12);
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn averages_over_rows() {
        let mut t = CostTable::new();
        t.push(row("a"));
        t.push(row("b"));
        let (w, a, d) = t.average_reductions();
        assert!((w - 0.5).abs() < 1e-12);
        assert!((a - 0.25).abs() < 1e-12);
        assert!((d - 0.5).abs() < 1e-12);
        assert_eq!(CostTable::new().average_reductions(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn csv_has_two_lines_per_row_plus_header() {
        let mut t = CostTable::new();
        t.push(row("tb1"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("testbench,design"));
        assert!(csv.contains("tb1,AutoNCS"));
        assert!(csv.contains("tb1,FullCro"));
    }

    #[test]
    fn display_contains_percentages() {
        let mut t = CostTable::new();
        t.push(row("tb1"));
        let s = t.to_string();
        assert!(s.contains("50.00%"));
        assert!(s.contains("average"));
    }

    #[test]
    fn zero_baseline_reduction_is_zero() {
        let mut r = row("z");
        r.baseline_wirelength_um = 0.0;
        assert_eq!(r.reductions().0, 0.0);
    }
}
