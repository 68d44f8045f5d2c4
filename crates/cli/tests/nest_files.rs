//! Integration: every checked-in example nest compiles, tiles, runs on the
//! simulated cluster, and verifies against sequential execution — through
//! the same code path as the `tilecc` binary. Every `.tk` example also
//! emits a C/MPI program that compiles, whose kernel matches the lowered
//! one bit for bit.

use tilecc_cli::run_cli;

fn nest(name: &str) -> String {
    format!("{}/../../examples/nests/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn args(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn sor_nest_verifies_under_rect_and_cone_tilings() {
    let f = nest("sor.tk");
    for tile in [
        vec!["--rect", "5,10,10"],
        vec!["--tile", "1/5,0,0; 0,1/10,0; -1/10,0,1/10"],
    ] {
        let mut a = vec!["run", f.as_str()];
        a.extend(tile);
        a.extend(["--map", "2", "--verify"]);
        let out = run_cli(&args(&a)).unwrap_or_else(|e| panic!("{e}"));
        assert!(out.contains("verified   : true"), "{out}");
    }
}

#[test]
fn jacobi_nest_verifies() {
    let f = nest("jacobi.tk");
    let out = run_cli(&args(&[
        "run",
        f.as_str(),
        "--tile",
        "1/3,-1/6,0; 0,1/8,0; 0,0,1/8",
        "--map",
        "0",
        "--verify",
    ]))
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.contains("verified   : true"), "{out}");
}

#[test]
fn adi_nest_verifies_and_matches_cone() {
    let f = nest("adi.tk");
    let cone = run_cli(&args(&["cone", f.as_str()])).unwrap();
    assert!(cone.contains("[1, -1, -1]"));
    let out = run_cli(&args(&[
        "run",
        f.as_str(),
        "--tile",
        "1/4,-1/4,-1/4; 0,1/8,0; 0,0,1/8",
        "--map",
        "0",
        "--verify",
    ]))
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.contains("verified   : true"), "{out}");
}

#[test]
fn heat1d_nest_verifies_in_two_dimensions() {
    let f = nest("heat1d.tk");
    let out = run_cli(&args(&["run", f.as_str(), "--rect", "6,8", "--verify"]))
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(out.contains("verified   : true"), "{out}");
}

/// The C compiler used to check emitted programs, if one is installed.
fn gcc() -> Option<&'static str> {
    ["gcc", "cc"].into_iter().find(|c| {
        std::process::Command::new(c)
            .arg("--version")
            .output()
            .is_ok()
    })
}

/// Every `.tk` file of the two example directories, with a rectangular
/// tiling of edge 2 in each of its dimensions.
fn corpus() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["kernels", "nests"] {
        let root = format!("{}/../../examples/{dir}", env!("CARGO_MANIFEST_DIR"));
        for e in std::fs::read_dir(&root).unwrap() {
            let path = e.unwrap().path();
            if path.extension().is_some_and(|x| x == "tk") {
                files.push(path.to_str().unwrap().to_string());
            }
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|f| {
            let src = std::fs::read_to_string(&f).unwrap();
            let dim = tilecc_frontend::parse_kernel(&src).unwrap().dim();
            (f, vec!["2"; dim].join(","))
        })
        .collect()
}

/// A temp path for `name`, unique per test (`tag`): tests run in parallel
/// in one process, and two of them write files for the same kernel.
fn scratch(tag: &str, name: &str) -> std::path::PathBuf {
    let stem = std::path::Path::new(name)
        .file_stem()
        .unwrap()
        .to_str()
        .unwrap();
    std::env::temp_dir().join(format!("tilecc-{tag}-{}-{stem}", std::process::id()))
}

#[test]
fn emit_on_every_nest_is_well_formed_and_compiles() {
    let files = corpus();
    assert_eq!(files.len(), 14, "10 kernels + 4 nests");
    for (f, rect) in files {
        let out = run_cli(&args(&["emit", f.as_str(), "--rect", &rect])).unwrap();
        assert!(out.contains("#include <mpi.h>"), "{f}");
        assert_eq!(
            out.matches('{').count(),
            out.matches('}').count(),
            "{f}: braces"
        );
        if let Some(gcc) = gcc() {
            let path = scratch("emit", &f).with_extension("c");
            std::fs::write(&path, &out).unwrap();
            let res = std::process::Command::new(gcc)
                .args([
                    "-std=c99",
                    "-DTILECC_STUB_MPI",
                    "-Wall",
                    "-Werror",
                    "-fsyntax-only",
                ])
                .arg(&path)
                .output()
                .unwrap();
            let _ = std::fs::remove_file(&path);
            assert!(
                res.status.success(),
                "{f}: emitted C does not compile:\n{}",
                String::from_utf8_lossy(&res.stderr)
            );
        }
    }
}

/// Semantic oracle: the emitted `kernel()` and `boundary()` return the
/// same bits as the lowered kernel's `compute` and `initial`, at points with
/// negative and large coordinates (wrapping boundary hashes, negative `mod`
/// arguments) and for arbitrary reads.
#[test]
fn emitted_kernel_matches_lowered_kernel_bitwise() {
    let Some(gcc) = gcc() else {
        eprintln!("gcc not found; skipping the emitted-kernel oracle");
        return;
    };
    // The last two points give a negative and an overflowing hash.
    let points: [[i64; 3]; 6] = [
        [2, 5, 7],
        [1, 1, 1],
        [-3, 4, -9],
        [40, -100, 3],
        [-(1 << 40), 5, 7],
        [1 << 58, 1 << 58, 1 << 58],
    ];
    for name in [
        "sor",
        "jacobi",
        "adi",
        "adi_paper",
        "coupled",
        "gs_redblack",
    ] {
        let f = format!(
            "{}/../../examples/kernels/{name}.tk",
            env!("CARGO_MANIFEST_DIR")
        );
        let src = std::fs::read_to_string(&f).unwrap();
        let alg = tilecc_frontend::compile_kernel(&src).unwrap();
        let (n, w, q) = (alg.nest.dim(), alg.width(), alg.nest.num_deps());
        let rect = vec!["2"; n].join(",");
        let code = run_cli(&args(&["emit", f.as_str(), "--rect", &rect])).unwrap();

        // Expected bits, and the harness printing the emitted functions'.
        let mut expect = Vec::new();
        let mut calls = String::new();
        for (p, pt) in points.iter().enumerate() {
            let j = &pt[..n];
            let reads: Vec<f64> = (0..q * w)
                .map(|i| ((i * 37 + p * 11 + 5) % 101) as f64 * 0.013 + 0.2)
                .collect();
            let mut out = vec![0.0; w];
            alg.kernel.compute(j, &reads, &mut out);
            expect.extend(out.iter().map(|v| format!("{:016x}", v.to_bits())));
            alg.kernel.initial(j, &mut out);
            expect.extend(out.iter().map(|v| format!("{:016x}", v.to_bits())));
            let list = |v: &[String]| v.join(", ");
            calls.push_str(&format!(
                "    {{ const long j[] = {{{}}}; const double read[] = {{{}}};\n      \
                 kernel(j, read, out); dump(out); boundary(j, out); dump(out); }}\n",
                list(&j.iter().map(|v| format!("{v}L")).collect::<Vec<_>>()),
                list(&reads.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>()),
            ));
        }
        let base = scratch("kernel", name);
        let program = base.with_extension("c");
        let harness = base.with_extension("harness.c");
        let exe = base.with_extension("exe");
        std::fs::write(&program, &code).unwrap();
        std::fs::write(
            &harness,
            format!(
                "#include \"{}\"\n#undef main\n#include <string.h>\n\
                 static void dump(const double *out) {{\n\
                 \x20   for (int c = 0; c < WIDTH; c++) {{ unsigned long long u; \
                 memcpy(&u, &out[c], sizeof u); printf(\"%016llx\\n\", u); }}\n}}\n\
                 int main(void) {{\n    double out[WIDTH];\n{calls}    return 0;\n}}\n",
                program.display()
            ),
        )
        .unwrap();
        let built = std::process::Command::new(gcc)
            .args([
                "-std=c99",
                "-DTILECC_STUB_MPI",
                "-Dmain=tilecc_emitted_main",
            ])
            .arg(&harness)
            .arg("-o")
            .arg(&exe)
            .output()
            .unwrap();
        let ran = built
            .status
            .success()
            .then(|| std::process::Command::new(&exe).output().unwrap());
        for p in [&program, &harness, &exe] {
            let _ = std::fs::remove_file(p);
        }
        assert!(
            built.status.success(),
            "{name}: harness does not build:\n{}",
            String::from_utf8_lossy(&built.stderr)
        );
        let ran = ran.unwrap();
        let got: Vec<String> = String::from_utf8(ran.stdout)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(
            got, expect,
            "{name}: emitted C differs from the lowered kernel"
        );
    }
}

#[test]
fn plan_reports_paper_quantities() {
    let f = nest("sor.tk");
    let out = run_cli(&args(&[
        "plan",
        f.as_str(),
        "--tile",
        "1/5,0,0; 0,1/10,0; -1/10,0,1/10",
        "--map",
        "2",
    ]))
    .unwrap();
    assert!(out.contains("tile size   : 500"), "{out}");
    assert!(out.contains("strides c   : [1, 1, 1]"), "{out}");
    assert!(out.contains("D^S"), "{out}");
}
