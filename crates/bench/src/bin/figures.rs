//! Regenerates §4 of the paper in one run. Each experiment (SOR, Jacobi,
//! ADI) sweeps its four iteration spaces once. Those twelve series are
//! Figures 5, 7 and 9, and the first series of each is Figure 6, 8 or 10;
//! all six are written to `results/fig*.json`. The run then prints the
//! §4.4 average improvements and the §4.1–4.3 analytic check.
//!
//! Usage: `cargo run --release -p tilecc-bench --bin figures` (no arguments).

use tilecc::{measure, Variant, Workload};
use tilecc_bench::*;
use tilecc_cluster::MachineModel;

/// One experiment of §4: its four iteration spaces, the (number,
/// description) of its maximum-speedup figure and of the tile-size figure
/// of its first space, and the paper's §4.4 average improvement.
struct Experiment {
    name: &'static str,
    spaces: [Workload; 4],
    max_figure: (u8, &'static str),
    size_figure: (u8, &'static str),
    paper_pct: f64,
}

const EXPERIMENTS: [Experiment; 3] = [
    Experiment {
        name: "SOR",
        spaces: [
            Workload::Sor { m: 100, n: 200 },
            Workload::Sor { m: 100, n: 100 },
            Workload::Sor { m: 200, n: 200 },
            Workload::Sor { m: 150, n: 300 },
        ],
        max_figure: (
            5,
            "SOR: maximum speedups for different iteration spaces (rect vs non-rect)",
        ),
        size_figure: (6, "SOR: speedups for various tile sizes (M=100, N=200)"),
        paper_pct: 17.3,
    },
    Experiment {
        name: "Jacobi",
        spaces: [
            Workload::Jacobi { t: 50, n: 100 },
            Workload::Jacobi { t: 50, n: 200 },
            Workload::Jacobi { t: 100, n: 100 },
            Workload::Jacobi { t: 100, n: 200 },
        ],
        max_figure: (7, "Jacobi: maximum speedups for different iteration spaces"),
        size_figure: (8, "Jacobi: speedups for various tile sizes (T=50, I=J=100)"),
        paper_pct: 9.1,
    },
    Experiment {
        name: "ADI",
        spaces: [
            Workload::Adi { t: 100, n: 256 },
            Workload::Adi { t: 100, n: 128 },
            Workload::Adi { t: 200, n: 128 },
            Workload::Adi { t: 200, n: 256 },
        ],
        max_figure: (
            9,
            "ADI: maximum speedups for different iteration spaces (rect/nr1/nr2/nr3)",
        ),
        size_figure: (10, "ADI: speedups for various tile sizes (T=100, N=256)"),
        paper_pct: 10.1,
    },
];

/// Names of the tile factors `(x, y, z)`.
const AXES: [&str; 3] = ["x", "y", "z"];

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: figures (takes no arguments)");
        std::process::exit(2);
    }
    let model = default_model();
    let results: Vec<_> = EXPERIMENTS
        .iter()
        .map(|e| run_experiment(e, model))
        .collect();

    println!("\n--- §4.4: average best-speedup improvement over rect ---");
    for (e, (gains, _)) in EXPERIMENTS.iter().zip(&results) {
        let avg = gains.iter().sum::<f64>() / gains.len() as f64;
        let per_space: Vec<String> = gains.iter().map(|v| format!("{v:+.1}%")).collect();
        println!("{:<8} per-space improvements: {per_space:?}", e.name);
        println!(
            "{:<8} average improvement: {avg:+.1}%  (paper: {:+.1}%)",
            e.name, e.paper_pct
        );
    }

    analytic_check(results[0].1, results[2].1, model);
}

/// Run `e` over its four spaces, print each series and the best speedup
/// per tiling, and write its two figures. Returns the §4.4 improvement of
/// each space and the grid factors of the first.
fn run_experiment(e: &Experiment, model: MachineModel) -> (Vec<f64>, (i64, i64, i64)) {
    let mut series = vec![];
    let mut gains = vec![];
    for &w in &e.spaces {
        let (s, nr) = run_series(w, model);
        println!(
            "\n=== {} — grid {}, {} procs ===",
            s.workload,
            grid_label(w, s.grid_factors),
            s.points[0].procs
        );
        print_points(&s.points);
        let gain = improvement_pct(&s.points, nr);
        println!("best-speedup improvement ({nr} over rect): {gain:+.1}%");
        gains.push(gain);
        series.push(s);
    }
    println!(
        "\n--- Figure {}: max speedup per iteration space ---",
        e.max_figure.0
    );
    for (s, w) in series.iter().zip(e.spaces) {
        println!("\n{} (grid {}):", s.workload, grid_label(w, s.grid_factors));
        let chain = w.mapping_dim();
        for p in best_per_variant(&s.points) {
            let f = [p.factors.0, p.factors.1, p.factors.2];
            println!(
                "  {:<10} speedup {:>6.3} ({} = {})",
                p.variant, p.speedup, AXES[chain], f[chain]
            );
        }
    }
    let first = series[0].clone();
    let grid = first.grid_factors;
    for ((number, description), series) in [(e.max_figure, series), (e.size_figure, vec![first])] {
        write_record(&FigureRecord {
            figure: format!("fig{number}"),
            description: description.into(),
            machine_model: "fast_ethernet_p3".into(),
            series,
        });
    }
    (gains, grid)
}

/// The grid factors of a series of `w`: every factor but the swept one
/// along `w`'s mapping dimension, e.g. `x=26, y=70`.
fn grid_label(w: Workload, g: (i64, i64, i64)) -> String {
    let g = [g.0, g.1, g.2];
    let named: Vec<String> = (0..3)
        .filter(|&k| k != w.mapping_dim())
        .map(|k| format!("{}={}", AXES[k], g[k]))
        .collect();
    named.join(", ")
}

/// §4.1–4.3 analytic check on the first SOR and ADI spaces, at the grids
/// their series measured: the simulated makespans follow the paper's
/// wavefront-step orderings, `t_nr < t_r` for SOR and
/// `t_nr3 < t_nr1 ≈ t_nr2 < t_r` for ADI.
fn analytic_check(sor_grid: (i64, i64, i64), adi_grid: (i64, i64, i64), model: MachineModel) {
    let (sor, adi) = (EXPERIMENTS[0].spaces[0], EXPERIMENTS[2].spaces[0]);
    println!("\n--- §4.1–4.3: analytic check ---");
    let (x, y, _) = sor_grid;
    println!("{} ({}), sweep z:", sor.label(), grid_label(sor, sor_grid));
    for z in [10, 20, 40] {
        let r = measure(sor, Variant::Rect, (x, y, z), model);
        let nr = measure(sor, Variant::NonRect, (x, y, z), model);
        println!(
            "  z={z:>3}  rect: steps {:>7.1} makespan {:.4}s | nr: steps {:>7.1} makespan {:.4}s  => nr faster: {}",
            r.predicted_steps, r.makespan, nr.predicted_steps, nr.makespan,
            nr.makespan < r.makespan
        );
    }

    let (_, y, z) = adi_grid;
    println!(
        "\n{} ({}), sweep x:",
        adi.label(),
        grid_label(adi, adi_grid)
    );
    for x in [5, 10, 20] {
        let t: Vec<f64> = [
            Variant::Rect,
            Variant::AdiNr1,
            Variant::AdiNr2,
            Variant::AdiNr3,
        ]
        .into_iter()
        .map(|v| measure(adi, v, (x, y, z), model).makespan)
        .collect();
        println!(
            "  x={x:>3}  rect {:.4}s | nr1 {:.4}s | nr2 {:.4}s | nr3 {:.4}s  => nr3 fastest: {}",
            t[0],
            t[1],
            t[2],
            t[3],
            t[3] <= t[1].min(t[2]) && t[3] < t[0]
        );
    }
}
