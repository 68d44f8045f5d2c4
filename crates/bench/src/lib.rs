//! Shared experiment harness for regenerating the paper's figures.
//!
//! Each `fig*` binary reproduces one figure of §4: it picks grid factors so
//! the distribution uses (as close as possible to) the paper's 16
//! processors, sweeps the chain-dimension tile factor, simulates rectangular
//! and non-rectangular tilings on the modelled cluster, prints the series,
//! and writes a JSON record under `results/`.

pub mod gantt;
pub mod harness;
pub mod per_point;

use std::path::Path;
use tilecc::{measure, probe_procs, MeasuredPoint, Variant, Workload};
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
pub struct SeriesRecord {
    pub workload: String,
    pub grid_factors: (i64, i64, i64),
    pub points: Vec<MeasuredPoint>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `f64` as JSON: finite values print with enough digits to round-trip;
/// non-finite values (never produced by a healthy run) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure a number like `3` keeps a float shape for typed readers.
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn point_json(p: &MeasuredPoint, indent: &str) -> String {
    format!(
        "{indent}{{\n\
         {indent}  \"variant\": \"{}\",\n\
         {indent}  \"factors\": [{}, {}, {}],\n\
         {indent}  \"tile_size\": {},\n\
         {indent}  \"procs\": {},\n\
         {indent}  \"sequential_time\": {},\n\
         {indent}  \"makespan\": {},\n\
         {indent}  \"speedup\": {},\n\
         {indent}  \"predicted_steps\": {},\n\
         {indent}  \"bytes\": {}\n\
         {indent}}}",
        json_escape(p.variant),
        p.factors.0,
        p.factors.1,
        p.factors.2,
        p.tile_size,
        p.procs,
        json_f64(p.sequential_time),
        json_f64(p.makespan),
        json_f64(p.speedup),
        json_f64(p.predicted_steps),
        p.bytes,
    )
}

impl FigureRecord {
    /// Pretty-printed JSON (hand-rolled: the build is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"figure\": \"{}\",\n",
            json_escape(&self.figure)
        ));
        s.push_str(&format!(
            "  \"description\": \"{}\",\n",
            json_escape(&self.description)
        ));
        s.push_str(&format!(
            "  \"machine_model\": \"{}\",\n",
            json_escape(&self.machine_model)
        ));
        s.push_str("  \"series\": [\n");
        for (i, ser) in self.series.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!(
                "      \"workload\": \"{}\",\n",
                json_escape(&ser.workload)
            ));
            s.push_str(&format!(
                "      \"grid_factors\": [{}, {}, {}],\n",
                ser.grid_factors.0, ser.grid_factors.1, ser.grid_factors.2
            ));
            s.push_str("      \"points\": [\n");
            let pts: Vec<String> = ser
                .points
                .iter()
                .map(|p| point_json(p, "        "))
                .collect();
            s.push_str(&pts.join(",\n"));
            s.push_str("\n      ]\n");
            s.push_str(if i + 1 < self.series.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n}");
        s
    }
}

/// Search the two processor-grid factors so the distribution hits
/// `TARGET_PROCS` processors (exact match preferred, otherwise closest).
///
/// `mk(a, b)` builds the full factor triple from the two grid factors; the
/// chain-dimension factor in the triple only affects chain lengths, never
/// the processor count, so a small value keeps probing cheap.
pub fn search_grid(
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

/// Sweep `variants × chain_factors` for one workload with fixed grid
/// factors. `mk(c)` builds the factor triple for chain factor `c`.
pub fn sweep(
    workload: Workload,
    variants: &[Variant],
    chain_factors: &[i64],
    mk: impl Fn(i64) -> (i64, i64, i64),
    model: MachineModel,
) -> Vec<MeasuredPoint> {
    let mut out = Vec::new();
    for &c in chain_factors {
        for &v in variants {
            out.push(measure(workload, v, mk(c), model));
        }
    }
    out
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
    std::fs::write(&path, record.to_json()).expect("write record");
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

// ---------------------------------------------------------------------------
// Figure configurations (spaces + sweeps), shared by binaries and benches.
// ---------------------------------------------------------------------------

/// The four SOR iteration spaces of Figure 5 (the first is Figure 6's).
pub fn sor_spaces() -> Vec<Workload> {
    vec![
        Workload::Sor { m: 100, n: 200 },
        Workload::Sor { m: 100, n: 100 },
        Workload::Sor { m: 200, n: 200 },
        Workload::Sor { m: 150, n: 300 },
    ]
}

/// The four Jacobi iteration spaces of Figure 7 (the first is Figure 8's).
pub fn jacobi_spaces() -> Vec<Workload> {
    vec![
        Workload::Jacobi { t: 50, n: 100 },
        Workload::Jacobi { t: 50, n: 200 },
        Workload::Jacobi { t: 100, n: 100 },
        Workload::Jacobi { t: 100, n: 200 },
    ]
}

/// The four ADI iteration spaces of Figure 9 (the first is Figure 10's).
pub fn adi_spaces() -> Vec<Workload> {
    vec![
        Workload::Adi { t: 100, n: 256 },
        Workload::Adi { t: 100, n: 128 },
        Workload::Adi { t: 200, n: 128 },
        Workload::Adi { t: 200, n: 256 },
    ]
}

/// Grid factors for a SOR space: `x` tiles the skewed time extent, `y` the
/// skewed `i` extent (mapping dimension is the third). Returns `(x, y)`.
pub fn sor_grid(w: Workload) -> (i64, i64) {
    let Workload::Sor { m, n } = w else {
        panic!("not a SOR workload")
    };
    let x0 = (m + 3) / 4;
    let y0 = (m + n + 3) / 4;
    search_grid(w, x0..x0 + 4, y0 - 8..y0 + 12, |x, y| (x, y, 8))
}

/// Grid factors for Jacobi/ADI spaces (mapping dimension first): `(y, z)`.
/// For Jacobi, `y` is restricted to even values: the non-rectangular Jacobi
/// tiling `H_nr = [[1/x,−1/(2x),0],…]` has integral tile side-vectors
/// (`P = H⁻¹ ∈ Zⁿ`) only for even `y`.
pub fn yz_grid(w: Workload, iext: i64, jext: i64) -> (i64, i64) {
    let y0 = (iext + 3) / 4;
    let z0 = (jext + 3) / 4;
    if matches!(w, Workload::Jacobi { .. }) {
        let y0 = y0 + (y0 % 2);
        search_grid(
            w,
            (y0 - 6..y0 + 10).filter(|y| y % 2 == 0),
            z0 - 6..z0 + 10,
            |y, z| (8, y, z),
        )
    } else {
        search_grid(w, y0 - 6..y0 + 10, z0 - 6..z0 + 10, |y, z| (8, y, z))
    }
}

/// Chain-factor sweep for a chain dimension of extent `ext`: a spread of
/// tile lengths from fine to coarse.
pub fn chain_sweep(ext: i64) -> Vec<i64> {
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

// ---------------------------------------------------------------------------
// Figure drivers (shared by the fig* binaries).
// ---------------------------------------------------------------------------

/// Run the SOR experiment over `spaces`; returns one series per space.
pub fn run_sor(spaces: &[Workload], model: MachineModel, verbose: bool) -> Vec<SeriesRecord> {
    let mut series = vec![];
    for &w in spaces {
        let Workload::Sor { m, n } = w else {
            panic!("not SOR")
        };
        let (x, y) = sor_grid(w);
        let factors = chain_sweep(2 * m + n - 2);
        let pts = sweep(
            w,
            &[Variant::Rect, Variant::NonRect],
            &factors,
            |z| (x, y, z),
            model,
        );
        if verbose {
            println!(
                "\n=== {} — grid x={x} y={y}, {} procs ===",
                w.label(),
                pts[0].procs
            );
            print_points(&pts);
            println!(
                "best-speedup improvement (non-rect over rect): {:+.1}%",
                improvement_pct(&pts, "non-rect")
            );
        }
        series.push(SeriesRecord {
            workload: w.label(),
            grid_factors: (x, y, 0),
            points: pts,
        });
    }
    series
}

/// Run the Jacobi experiment over `spaces`.
pub fn run_jacobi(spaces: &[Workload], model: MachineModel, verbose: bool) -> Vec<SeriesRecord> {
    let mut series = vec![];
    for &w in spaces {
        let Workload::Jacobi { t, n } = w else {
            panic!("not Jacobi")
        };
        let (y, z) = yz_grid(w, t + n - 1, t + n - 1);
        let factors = chain_sweep(t);
        let pts = sweep(
            w,
            &[Variant::Rect, Variant::NonRect],
            &factors,
            |x| (x, y, z),
            model,
        );
        if verbose {
            println!(
                "\n=== {} — grid y={y} z={z}, {} procs ===",
                w.label(),
                pts[0].procs
            );
            print_points(&pts);
            println!(
                "best-speedup improvement (non-rect over rect): {:+.1}%",
                improvement_pct(&pts, "non-rect")
            );
        }
        series.push(SeriesRecord {
            workload: w.label(),
            grid_factors: (0, y, z),
            points: pts,
        });
    }
    series
}

/// Run the ADI experiment (all four tiling variants) over `spaces`.
pub fn run_adi(spaces: &[Workload], model: MachineModel, verbose: bool) -> Vec<SeriesRecord> {
    let mut series = vec![];
    for &w in spaces {
        let Workload::Adi { t, n } = w else {
            panic!("not ADI")
        };
        let (y, z) = yz_grid(w, n, n);
        let factors = chain_sweep(t);
        let variants = [
            Variant::Rect,
            Variant::AdiNr1,
            Variant::AdiNr2,
            Variant::AdiNr3,
        ];
        let pts = sweep(w, &variants, &factors, |x| (x, y, z), model);
        if verbose {
            println!(
                "\n=== {} — grid y={y} z={z}, {} procs ===",
                w.label(),
                pts[0].procs
            );
            print_points(&pts);
            println!(
                "best-speedup improvement (nr3 over rect): {:+.1}%",
                improvement_pct(&pts, "nr3")
            );
        }
        series.push(SeriesRecord {
            workload: w.label(),
            grid_factors: (0, y, z),
            points: pts,
        });
    }
    series
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
        let json = rec.to_json();
        assert!(json.contains("\"figure\": \"fig-test\""), "{json}");
        assert!(json.contains("\\\"quoted\\\""), "escaping: {json}");
        assert!(json.contains("\"factors\": [2, 3, 4]"), "{json}");
        assert!(json.contains("\"speedup\": 3.0"), "float shape: {json}");
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
