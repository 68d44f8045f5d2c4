//! Shared experiment harness for regenerating the paper's figures.
//!
//! [`run_series`] runs one experiment of §4 on one iteration space: it
//! picks grid factors so the distribution uses (as close as possible to)
//! the paper's 16 processors, sweeps the chain-dimension tile factor and
//! simulates the rectangular and non-rectangular tilings on the modelled
//! cluster. The `figures` binary runs every space once, prints the series
//! and writes Figures 5–10 as JSON records under `results/`.

pub mod gantt;
pub mod harness;
pub mod per_point;

use std::path::Path;
use tilecc::{measure, probe_procs, MeasuredPoint, Variant, Workload};
use tilecc_cluster::obs::json::Json;
use tilecc_cluster::MachineModel;

/// The paper's target process count.
pub const TARGET_PROCS: usize = 16;

/// The default machine model (see `MachineModel::fast_ethernet_p3`).
pub fn default_model() -> MachineModel {
    MachineModel::fast_ethernet_p3()
}

/// A figure record written to `results/<name>.json`.
pub struct FigureRecord {
    pub figure: String,
    pub description: String,
    pub machine_model: String,
    pub series: Vec<SeriesRecord>,
}

/// One workload's sweep within a figure.
#[derive(Clone)]
pub struct SeriesRecord {
    pub workload: String,
    pub grid_factors: (i64, i64, i64),
    pub points: Vec<MeasuredPoint>,
}

impl FigureRecord {
    /// The record as JSON; [`write_record`] prints it in the pretty form.
    pub fn to_json(&self) -> Json {
        let triple = |(a, b, c): (i64, i64, i64)| Json::from_iter([a, b, c]);
        let series = self.series.iter().map(|ser| {
            let points = ser.points.iter().map(|p| {
                Json::obj([
                    ("variant", p.variant.into()),
                    ("factors", triple(p.factors)),
                    ("tile_size", p.tile_size.into()),
                    ("procs", p.procs.into()),
                    ("sequential_time", p.sequential_time.into()),
                    ("makespan", p.makespan.into()),
                    ("speedup", p.speedup.into()),
                    ("predicted_steps", p.predicted_steps.into()),
                    ("bytes", p.bytes.into()),
                ])
            });
            Json::obj([
                ("workload", ser.workload.as_str().into()),
                ("grid_factors", triple(ser.grid_factors)),
                ("points", points.collect()),
            ])
        });
        Json::obj([
            ("figure", self.figure.as_str().into()),
            ("description", self.description.as_str().into()),
            ("machine_model", self.machine_model.as_str().into()),
            ("series", series.collect()),
        ])
    }
}

/// Search the two processor-grid factors so the distribution hits
/// `TARGET_PROCS` processors (exact match preferred, otherwise closest).
///
/// `mk(a, b)` builds the full factor triple from the two grid factors; the
/// chain-dimension factor in the triple only affects chain lengths, never
/// the processor count, so a small value keeps probing cheap.
fn search_grid(
    workload: Workload,
    a_range: impl Iterator<Item = i64> + Clone,
    b_range: impl Iterator<Item = i64> + Clone,
    mk: impl Fn(i64, i64) -> (i64, i64, i64),
) -> (i64, i64) {
    let mut best: Option<(i64, i64, usize)> = None;
    for a in a_range {
        for b in b_range.clone() {
            let procs = probe_procs(workload, Variant::Rect, mk(a, b));
            let dist = procs.abs_diff(TARGET_PROCS);
            if dist == 0 {
                return (a, b);
            }
            if best.is_none_or(|(_, _, d)| dist < d) {
                best = Some((a, b, dist));
            }
        }
    }
    let (a, b, _) = best.expect("empty search range");
    (a, b)
}

/// Chain-factor sweep for a chain dimension of extent `ext`: a spread of
/// tile lengths from fine to coarse.
fn chain_sweep(ext: i64) -> Vec<i64> {
    let candidates = [
        ext / 32,
        ext / 20,
        ext / 12,
        ext / 8,
        ext / 5,
        ext / 3,
        ext / 2,
    ];
    let mut out: Vec<i64> = candidates.into_iter().filter(|&c| c >= 2).collect();
    out.dedup();
    out
}

/// Run one experiment of §4 on space `w`. The grid search picks the two
/// processor-grid factors; the chain-dimension factor (the one along `w`'s
/// mapping dimension, `0` in the returned `grid_factors`) is then swept
/// over every tiling the experiment compares. Returns the series and the
/// label of the non-rectangular tiling that §4.4 compares with `rect`.
pub fn run_series(w: Workload, model: MachineModel) -> (SeriesRecord, &'static str) {
    use Variant::{AdiNr1, AdiNr2, AdiNr3, NonRect, Rect};
    let (grid, chain_extent, variants, nr): (_, _, &[Variant], _) = match w {
        // `x` tiles the skewed time extent, `y` the skewed `i` extent.
        Workload::Sor { m, n } => {
            let (x0, y0) = ((m + 3) / 4, (m + n + 3) / 4);
            let (x, y) = search_grid(w, x0..x0 + 4, y0 - 8..y0 + 12, |x, y| (x, y, 8));
            ((x, y, 0), 2 * m + n - 2, &[Rect, NonRect], "non-rect")
        }
        // `y` and `z` tile the skewed `i` and `j` extents, `T + N − 1`
        // each. `y` stays even: the non-rectangular Jacobi tiling
        // `H_nr = [[1/x,−1/(2x),0],…]` has integral tile side-vectors
        // (`P = H⁻¹ ∈ Zⁿ`) only for even `y`.
        Workload::Jacobi { t, n } => {
            let c = (t + n - 1 + 3) / 4;
            let y0 = c + c % 2;
            let even = (y0 - 6..y0 + 10).filter(|y| y % 2 == 0);
            let (y, z) = search_grid(w, even, c - 6..c + 10, |y, z| (8, y, z));
            ((0, y, z), t, &[Rect, NonRect], "non-rect")
        }
        Workload::Adi { t, n } => {
            let c = (n + 3) / 4;
            let (y, z) = search_grid(w, c - 6..c + 10, c - 6..c + 10, |y, z| (8, y, z));
            ((0, y, z), t, &[Rect, AdiNr1, AdiNr2, AdiNr3], "nr3")
        }
    };
    let mut points = vec![];
    for c in chain_sweep(chain_extent) {
        let mut f = [grid.0, grid.1, grid.2];
        f[w.mapping_dim()] = c;
        for &v in variants {
            points.push(measure(w, v, (f[0], f[1], f[2]), model));
        }
    }
    let series = SeriesRecord {
        workload: w.label(),
        grid_factors: grid,
        points,
    };
    (series, nr)
}

/// The best (maximum-speedup) point per variant — the per-space bars of
/// Figures 5, 7 and 9.
pub fn best_per_variant(points: &[MeasuredPoint]) -> Vec<&MeasuredPoint> {
    let mut variants: Vec<&'static str> = vec![];
    for p in points {
        if !variants.contains(&p.variant) {
            variants.push(p.variant);
        }
    }
    variants
        .into_iter()
        .map(|v| {
            points
                .iter()
                .filter(|p| p.variant == v)
                .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
                .expect("variant has points")
        })
        .collect()
}

/// Render a fixed-width table of measured points.
pub fn print_points(points: &[MeasuredPoint]) {
    println!(
        "{:<10} {:>4} {:>4} {:>4} {:>9} {:>6} {:>12} {:>12} {:>8} {:>10}",
        "variant", "x", "y", "z", "tilesize", "procs", "seq(s)", "par(s)", "speedup", "steps"
    );
    for p in points {
        println!(
            "{:<10} {:>4} {:>4} {:>4} {:>9} {:>6} {:>12.6} {:>12.6} {:>8.3} {:>10.1}",
            p.variant,
            p.factors.0,
            p.factors.1,
            p.factors.2,
            p.tile_size,
            p.procs,
            p.sequential_time,
            p.makespan,
            p.speedup,
            p.predicted_steps,
        );
    }
}

/// Write a figure record as pretty JSON under `results/`.
pub fn write_record(record: &FigureRecord) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{}.json", record.figure));
    std::fs::write(&path, record.to_json().pretty()).expect("write record");
    println!("\nwrote {}", path.display());
}

/// Percentage improvement of the best `nr_label` speedup over the best
/// rectangular one.
pub fn improvement_pct(points: &[MeasuredPoint], nr_label: &str) -> f64 {
    let best = |label: &str| {
        points
            .iter()
            .filter(|p| p.variant == label)
            .map(|p| p.speedup)
            .fold(f64::MIN, f64::max)
    };
    let r = best("rect");
    let nr = best(nr_label);
    (nr - r) / r * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_record_renders_valid_json_shape() {
        let rec = FigureRecord {
            figure: "fig-test".into(),
            description: "a \"quoted\" description".into(),
            machine_model: "model".into(),
            series: vec![SeriesRecord {
                workload: "SOR M=8 N=8".into(),
                grid_factors: (2, 3, 0),
                points: vec![MeasuredPoint {
                    variant: "rect",
                    factors: (2, 3, 4),
                    tile_size: 24,
                    procs: 6,
                    sequential_time: 1.5,
                    makespan: 0.5,
                    speedup: 3.0,
                    predicted_steps: 12.0,
                    bytes: 1024,
                }],
            }],
        };
        let json = rec.to_json().pretty();
        assert!(json.contains("\"figure\": \"fig-test\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "escaping: {json}");
        assert!(json.contains("\"factors\": [2, 3, 4]"), "{json}");
        assert!(json.contains("\"speedup\": 3.0"), "float shape: {json}");
        assert_eq!(tilecc_cluster::obs::json::parse(&json), Ok(rec.to_json()));
    }
}
