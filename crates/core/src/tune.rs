//! `tilecc tune` — search over legal tiling matrices at a fixed tile volume.
//!
//! The paper (§4) hand-picks one rectangular and one cone-derived tiling per
//! kernel and compares them at equal tile size. This module automates that
//! comparison: it enumerates every parallelepiped tiling whose rows are drawn
//! from the tiling cone of the dependence matrix (extreme rays plus in-cone
//! unit vectors, [`tilecc_tiling::candidate_rows`]), scales the rows so the
//! tile volume matches a target, filters out singular / non-integral /
//! illegal candidates, deduplicates schedule-isomorphic ones, and ranks the
//! survivors by modeled makespan under [`Pipeline::simulate`].
//!
//! ## Search space
//!
//! A candidate is `H = diag(1/f)·R` where the rows of `R` are `n` distinct
//! vectors from the candidate pool and `f` is a vector of positive integer
//! scale factors. Because pool rows are primitive, the row-denominator LCMs
//! are `v = f` and the integralized matrix is `H' = R`, so the tile volume is
//! `|det P| = Πf / |det R|`: for a target volume `W` we enumerate every
//! ordered factorization of `W·|det R|` into `n` factors. Candidates whose
//! `P = H⁻¹` is not an integer matrix are rejected by
//! [`TilingTransform::new`]; candidates violating the legality condition
//! `H·d ≥ 0` are rejected by `validate_for` (both are counted, not errors).
//!
//! ## Dedup
//!
//! Two surviving candidates are schedule-isomorphic when one's `(row,
//! factor)` pairs are a permutation of the other's that fixes the mapping
//! row `m`: permuting the non-mapping rows of `H` only permutes the `pid`
//! coordinates, leaving chains, tile dependencies and message sizes
//! untouched. The canonical key is therefore the mapping pair followed by
//! the sorted remaining pairs — exact, unlike a Hermite-form-only key, which
//! would collapse distinct partitions that happen to share the `H'` lattice
//! (e.g. `[[1,0],[1,1]]` vs the identity). The column HNF of `H'`
//! ([`tilecc_linalg::column_hnf`]) is still computed per candidate as the
//! lattice signature reported alongside the ranking.

use crate::pipeline::{Pipeline, RunSummary};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use tilecc_cluster::{EngineOptions, MachineModel};
use tilecc_linalg::{column_hnf, IMat, RMat, Rational};
use tilecc_loopnest::Algorithm;
use tilecc_parcode::{Backend, ExecStrategy};
use tilecc_tiling::{candidate_rows, TilingError, TilingTransform};

/// One element of the tuner's raw search space.
#[derive(Clone, Debug)]
pub struct CandidateH {
    /// Integer rows `R` drawn from the candidate pool (equal to `H'`).
    pub rows: Vec<Vec<i64>>,
    /// Per-row scale factors `f` (equal to `v` since the rows are primitive).
    pub factors: Vec<i64>,
    /// The rational tiling matrix `H = diag(1/f)·R`.
    pub h: RMat,
}

/// Tuner configuration.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Target tile volume `|det P|` (iterations per full tile).
    pub volume: i64,
    /// Mapping dimension `m` (tile chains run along row `m` of `H`).
    pub m: usize,
    /// Cap on the number of candidates that are simulated (the enumeration
    /// itself is exhaustive; the cap keeps the oracle cost bounded).
    pub max_candidates: usize,
    /// Tiling matrices that are always evaluated (seeded ahead of the
    /// generated candidates), e.g. the paper's fixed `H` — guaranteeing the
    /// winner is never worse than a seed.
    pub include: Vec<RMat>,
}

impl TuneOptions {
    pub fn new(volume: i64, m: usize) -> Self {
        TuneOptions {
            volume,
            m,
            max_candidates: 128,
            include: vec![],
        }
    }
}

/// One evaluated candidate in the ranking.
#[derive(Clone, Debug)]
pub struct TunedCandidate {
    /// The tiling matrix.
    pub h: RMat,
    /// `H' = V·H` (integer).
    pub h_prime: IMat,
    /// Row-denominator LCMs `v`.
    pub v: Vec<i64>,
    /// Column Hermite Normal Form of `H'` — the TTIS lattice signature.
    pub hnf: IMat,
    /// Whether this candidate was seeded via [`TuneOptions::include`].
    pub included: bool,
    /// Simulation summary under the machine model.
    pub summary: RunSummary,
}

/// Result of one tuner run.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// Kernel label (caller-provided, e.g. `SOR M=12 N=12`).
    pub label: String,
    /// Target tile volume.
    pub volume: i64,
    /// Mapping dimension.
    pub m: usize,
    /// The candidate row pool (cone rays + in-cone unit vectors).
    pub pool: Vec<Vec<i64>>,
    /// Raw candidates enumerated (including seeds).
    pub generated: usize,
    /// Rejected: `P = H⁻¹` singular or not integral.
    pub invalid: usize,
    /// Rejected: legality (`H·d ≥ 0`) fails for some dependence.
    pub illegal: usize,
    /// Skipped: schedule-isomorphic to an earlier candidate.
    pub deduped: usize,
    /// Dropped by the `max_candidates` cap after dedup.
    pub truncated: usize,
    /// Plan construction failed (e.g. coefficient overflow).
    pub failed: usize,
    /// Candidates actually simulated (`ranking.len()`).
    pub evaluated: usize,
    /// Evaluated candidates, best modeled makespan first.
    pub ranking: Vec<TunedCandidate>,
}

impl TuneOutcome {
    /// The winning candidate (least modeled makespan).
    pub fn best(&self) -> Option<&TunedCandidate> {
        self.ranking.first()
    }

    /// The best *seeded* candidate — the baseline the winner must beat.
    pub fn best_included(&self) -> Option<&TunedCandidate> {
        self.ranking.iter().find(|c| c.included)
    }

    /// JSON object for machine consumption (winning `H`, ranking, counters).
    pub fn to_json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let pad2 = " ".repeat(indent + 2);
        let mut s = String::from("{\n");
        let _ = writeln!(s, "{pad2}\"kernel\": \"{}\",", self.label);
        let _ = writeln!(s, "{pad2}\"volume\": {},", self.volume);
        let _ = writeln!(s, "{pad2}\"m\": {},", self.m);
        let pool: Vec<String> = self.pool.iter().map(|r| json_ivec(r)).collect();
        let _ = writeln!(s, "{pad2}\"pool\": [{}],", pool.join(", "));
        let _ = writeln!(s, "{pad2}\"generated\": {},", self.generated);
        let _ = writeln!(s, "{pad2}\"invalid\": {},", self.invalid);
        let _ = writeln!(s, "{pad2}\"illegal\": {},", self.illegal);
        let _ = writeln!(s, "{pad2}\"deduped\": {},", self.deduped);
        let _ = writeln!(s, "{pad2}\"truncated\": {},", self.truncated);
        let _ = writeln!(s, "{pad2}\"failed\": {},", self.failed);
        let _ = writeln!(s, "{pad2}\"evaluated\": {},", self.evaluated);
        let _ = writeln!(s, "{pad2}\"ranking\": [");
        for (i, c) in self.ranking.iter().enumerate() {
            let comma = if i + 1 == self.ranking.len() { "" } else { "," };
            let _ = writeln!(s, "{}{}", candidate_json(c, indent + 4), comma);
        }
        let _ = writeln!(s, "{pad2}]");
        let _ = write!(s, "{pad}}}");
        s
    }

    /// Human-readable ranking table.
    pub fn report(&self) -> String {
        self.report_top(usize::MAX)
    }

    /// [`TuneOutcome::report`] limited to the first `limit` ranking rows.
    pub fn report_top(&self, limit: usize) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "tune: {} (volume {}, m={}) — {} generated, {} invalid, {} illegal, \
             {} deduped, {} truncated, {} failed, {} evaluated",
            self.label,
            self.volume,
            self.m,
            self.generated,
            self.invalid,
            self.illegal,
            self.deduped,
            self.truncated,
            self.failed,
            self.evaluated
        );
        let _ = writeln!(
            s,
            "  {:<4} {:<34} {:>12} {:>10} {:>6} {:>9}  seed",
            "rank", "H (rows)", "makespan", "bytes", "procs", "speedup"
        );
        for (i, c) in self.ranking.iter().take(limit).enumerate() {
            let _ = writeln!(
                s,
                "  {:<4} {:<34} {:>12.6} {:>10} {:>6} {:>9.3}  {}",
                i + 1,
                fmt_h(&c.h),
                c.summary.makespan,
                c.summary.bytes,
                c.summary.procs,
                c.summary.speedup,
                if c.included { "*" } else { "" }
            );
        }
        if self.ranking.len() > limit {
            let _ = writeln!(
                s,
                "  … {} more candidates omitted",
                self.ranking.len() - limit
            );
        }
        s
    }
}

/// Enumerate the raw candidate matrices for `deps` at tile volume `volume`:
/// every ordered choice of `n` distinct pool rows with `det R ≠ 0`, crossed
/// with every ordered factorization of `volume·|det R|` into `n` positive
/// factors. Deterministic order; no validity filtering (the tuner counts
/// rejections, and the fuzzer feeds these through plan construction).
/// A nest without a tiling cone (dimension below 2) is an error.
pub fn enumerate_candidates(deps: &IMat, volume: i64) -> Result<Vec<CandidateH>, TilingError> {
    assert!(volume > 0, "tile volume must be positive");
    let n = deps.rows();
    let pool = candidate_rows(deps)?;
    let mut out = vec![];
    let mut pick = vec![0usize; n];
    permute_rows(&pool, n, &mut pick, 0, &mut |idx| {
        let rows: Vec<Vec<i64>> = idx.iter().map(|&i| pool[i].clone()).collect();
        let det = IMat::from_vec(rows.clone()).det().abs();
        if det == 0 {
            return;
        }
        for factors in ordered_factorizations(volume * det, n) {
            let h = RMat::from_fn(n, n, |i, j| {
                Rational::new(i128::from(rows[i][j]), i128::from(factors[i]))
            });
            out.push(CandidateH {
                rows: rows.clone(),
                factors,
                h,
            });
        }
    });
    Ok(out)
}

/// Visit every ordered selection of `k` distinct indices into `pool`.
fn permute_rows(
    pool: &[Vec<i64>],
    k: usize,
    pick: &mut Vec<usize>,
    depth: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if depth == k {
        visit(pick);
        return;
    }
    for i in 0..pool.len() {
        if pick[..depth].contains(&i) {
            continue;
        }
        pick[depth] = i;
        permute_rows(pool, k, pick, depth + 1, visit);
    }
}

/// All ordered factorizations of `n` into `parts` positive integer factors,
/// in lexicographic order.
fn ordered_factorizations(n: i64, parts: usize) -> Vec<Vec<i64>> {
    if parts == 1 {
        return vec![vec![n]];
    }
    let mut out = vec![];
    for d in 1..=n {
        if n % d != 0 {
            continue;
        }
        for mut rest in ordered_factorizations(n / d, parts - 1) {
            rest.insert(0, d);
            out.push(rest);
        }
    }
    out
}

/// Schedule-isomorphism canonical key: the mapping-row `(v_m, H'_m)` pair
/// first, then the remaining `(v_k, H'_k)` pairs sorted. Exact — includes
/// `H'` and `v` verbatim, only collapsing permutations that fix row `m`.
fn canonical_key(h_prime: &IMat, v: &[i64], m: usize) -> Vec<i64> {
    let n = h_prime.rows();
    let pair = |k: usize| {
        let mut p = vec![v[k]];
        p.extend_from_slice(h_prime.row(k));
        p
    };
    let mut rest: Vec<Vec<i64>> = (0..n).filter(|&k| k != m).map(pair).collect();
    rest.sort();
    let mut key = pair(m);
    for p in rest {
        key.extend(p);
    }
    key
}

/// Run the tuner: enumerate, filter, dedup, simulate, rank.
///
/// The seeds in [`TuneOptions::include`] are evaluated first (and marked),
/// so the returned winner's makespan is never worse than any seed's. A
/// nest without a tiling cone (dimension below 2) is an error.
pub fn tune(
    algorithm: &Algorithm,
    opts: &TuneOptions,
    model: MachineModel,
) -> Result<TuneOutcome, TilingError> {
    tune_labeled(algorithm, opts, model, "kernel")
}

/// [`tune`] with a caller-supplied kernel label for reports.
pub fn tune_labeled(
    algorithm: &Algorithm,
    opts: &TuneOptions,
    model: MachineModel,
    label: &str,
) -> Result<TuneOutcome, TilingError> {
    let deps = algorithm.nest.deps();
    let pool = candidate_rows(deps)?;
    let mut outcome = TuneOutcome {
        label: label.to_string(),
        volume: opts.volume,
        m: opts.m,
        pool,
        generated: 0,
        invalid: 0,
        illegal: 0,
        deduped: 0,
        truncated: 0,
        failed: 0,
        evaluated: 0,
        ranking: vec![],
    };
    let mut seen: BTreeSet<Vec<i64>> = BTreeSet::new();
    let mut accepted: Vec<(TilingTransform, bool)> = vec![];
    let mut consider = |h: RMat, included: bool, outcome: &mut TuneOutcome| {
        outcome.generated += 1;
        let Ok(t) = TilingTransform::new(h) else {
            outcome.invalid += 1;
            return;
        };
        if t.validate_for(deps).is_err() {
            outcome.illegal += 1;
            return;
        }
        if !seen.insert(canonical_key(t.h_prime(), t.v(), opts.m)) {
            outcome.deduped += 1;
            return;
        }
        if accepted.len() >= opts.max_candidates {
            outcome.truncated += 1;
            return;
        }
        accepted.push((t, included));
    };
    for h in &opts.include {
        consider(h.clone(), true, &mut outcome);
    }
    for cand in enumerate_candidates(deps, opts.volume)? {
        consider(cand.h, false, &mut outcome);
    }
    for (t, included) in accepted {
        let hnf = column_hnf(t.h_prime()).hnf;
        let (h, h_prime, v) = (t.h().clone(), t.h_prime().clone(), t.v().to_vec());
        match Pipeline::compile_transform(algorithm.clone(), t, Some(opts.m)) {
            Ok(pipe) => {
                let summary = pipe
                    .simulate(
                        model,
                        ExecStrategy::Compiled,
                        Backend::Threaded,
                        EngineOptions::default(),
                    )
                    .expect("a fault-free timing run completes");
                outcome.ranking.push(TunedCandidate {
                    h,
                    h_prime,
                    v,
                    hnf,
                    included,
                    summary,
                });
            }
            Err(_) => outcome.failed += 1,
        }
    }
    outcome.evaluated = outcome.ranking.len();
    outcome.ranking.sort_by(|a, b| {
        a.summary
            .makespan
            .total_cmp(&b.summary.makespan)
            .then(a.summary.bytes.cmp(&b.summary.bytes))
            .then_with(|| {
                canonical_key(&a.h_prime, &a.v, opts.m)
                    .cmp(&canonical_key(&b.h_prime, &b.v, opts.m))
            })
    });
    Ok(outcome)
}

/// Format `H` compactly: rows separated by `;`, entries as `num/den`.
pub fn fmt_h(h: &RMat) -> String {
    let mut s = String::from("[");
    for i in 0..h.rows() {
        if i > 0 {
            s.push(';');
        }
        for (j, r) in h.row(i).iter().enumerate() {
            if j > 0 {
                s.push(' ');
            }
            if r.is_integer() {
                let _ = write!(s, "{}", r.to_integer());
            } else {
                let _ = write!(s, "{}/{}", r.num(), r.den());
            }
        }
    }
    s.push(']');
    s
}

fn json_ivec(v: &[i64]) -> String {
    let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn json_imat(m: &IMat) -> String {
    let rows: Vec<String> = (0..m.rows()).map(|i| json_ivec(m.row(i))).collect();
    format!("[{}]", rows.join(", "))
}

fn json_rmat(h: &RMat) -> String {
    let rows: Vec<String> = (0..h.rows())
        .map(|i| {
            let items: Vec<String> = h
                .row(i)
                .iter()
                .map(|r| format!("[{}, {}]", r.num(), r.den()))
                .collect();
            format!("[{}]", items.join(", "))
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn candidate_json(c: &TunedCandidate, indent: usize) -> String {
    let pad = " ".repeat(indent);
    let pad2 = " ".repeat(indent + 2);
    let mut s = String::new();
    let _ = writeln!(s, "{pad}{{");
    let _ = writeln!(s, "{pad2}\"h\": {},", json_rmat(&c.h));
    let _ = writeln!(s, "{pad2}\"h_display\": \"{}\",", fmt_h(&c.h));
    let _ = writeln!(s, "{pad2}\"h_prime\": {},", json_imat(&c.h_prime));
    let _ = writeln!(s, "{pad2}\"v\": {},", json_ivec(&c.v));
    let _ = writeln!(s, "{pad2}\"hnf\": {},", json_imat(&c.hnf));
    let _ = writeln!(s, "{pad2}\"included\": {},", c.included);
    let _ = writeln!(s, "{pad2}\"makespan\": {},", c.summary.makespan);
    let _ = writeln!(s, "{pad2}\"speedup\": {},", c.summary.speedup);
    let _ = writeln!(s, "{pad2}\"bytes\": {},", c.summary.bytes);
    let _ = writeln!(s, "{pad2}\"messages\": {},", c.summary.messages);
    let _ = writeln!(s, "{pad2}\"procs\": {}", c.summary.procs);
    let _ = write!(s, "{pad}}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{Variant, Workload};

    #[test]
    fn ordered_factorizations_cover_all_triples() {
        let fs = ordered_factorizations(12, 3);
        assert!(fs.contains(&vec![1, 1, 12]));
        assert!(fs.contains(&vec![2, 3, 2]));
        assert!(fs.contains(&vec![12, 1, 1]));
        for f in &fs {
            assert_eq!(f.iter().product::<i64>(), 12);
        }
        // d_3(12): 12 = 2²·3 → (2+2 choose 2)·(1+2 choose 2) = 6·3 = 18.
        assert_eq!(fs.len(), 18);
    }

    #[test]
    fn enumerated_candidates_hit_the_target_volume() {
        let deps = IMat::identity(3);
        for cand in enumerate_candidates(&deps, 8).unwrap() {
            if let Ok(t) = TilingTransform::new(cand.h.clone()) {
                assert_eq!(t.tile_size(), Ok(8), "wrong volume for {:?}", cand.rows);
                assert_eq!(t.v(), cand.factors.as_slice());
            }
        }
    }

    #[test]
    fn canonical_key_collapses_only_m_fixing_permutations() {
        // Swapping the two non-mapping rows (with their factors) is
        // schedule-isomorphic; swapping the mapping row out is not.
        let a = IMat::from_rows(&[&[1, 0, 0], &[0, 1, 0], &[-1, 0, 1]]);
        let b = IMat::from_rows(&[&[0, 1, 0], &[1, 0, 0], &[-1, 0, 1]]);
        let c = IMat::from_rows(&[&[-1, 0, 1], &[0, 1, 0], &[1, 0, 0]]);
        let v_ab = [2, 3, 4];
        let v_ba = [3, 2, 4];
        let v_c = [4, 3, 2];
        assert_eq!(canonical_key(&a, &v_ab, 2), canonical_key(&b, &v_ba, 2));
        assert_ne!(canonical_key(&a, &v_ab, 2), canonical_key(&c, &v_c, 2));
        // Identical lattices with different partitions stay distinct.
        let id = IMat::identity(2);
        let sheared = IMat::from_rows(&[&[1, 0], &[1, 1]]);
        assert_ne!(
            canonical_key(&id, &[1, 1], 0),
            canonical_key(&sheared, &[1, 1], 0)
        );
    }

    #[test]
    fn tune_never_loses_to_a_seed_and_beats_rect_sor() {
        let w = Workload::Sor { m: 6, n: 9 };
        let alg = w.algorithm();
        let (x, y, z) = (2, 3, 2);
        let mut opts = TuneOptions::new(x * y * z, w.mapping_dim());
        opts.include = vec![w.tiling(Variant::Rect, x, y, z)];
        let model = MachineModel::fast_ethernet_p3();
        let out = tune_labeled(&alg, &opts, model, &w.label()).unwrap();
        assert!(out.evaluated > 0, "no candidates survived");
        let best = out.best().unwrap();
        let seed = out.best_included().expect("seed must be evaluated");
        assert!(best.summary.makespan <= seed.summary.makespan);
        // The cone-derived candidates must strictly beat rectangular SOR,
        // as the paper's §4.1 comparison predicts.
        assert!(
            best.summary.makespan < seed.summary.makespan,
            "tuner found nothing better than rect (makespan {})",
            seed.summary.makespan
        );
        // Every evaluated candidate keeps the target volume.
        for c in &out.ranking {
            let t = TilingTransform::new(c.h.clone()).unwrap();
            assert_eq!(t.tile_size(), Ok(opts.volume));
        }
    }

    #[test]
    fn tune_json_and_report_are_well_formed() {
        let w = Workload::Adi { t: 6, n: 6 };
        let alg = w.algorithm();
        let mut opts = TuneOptions::new(8, w.mapping_dim());
        opts.max_candidates = 16;
        opts.include = vec![w.tiling(Variant::AdiNr1, 2, 2, 2)];
        let out = tune_labeled(&alg, &opts, MachineModel::fast_ethernet_p3(), &w.label()).unwrap();
        let json = out.to_json(0);
        assert!(json.contains("\"ranking\""));
        assert!(json.contains("\"makespan\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let report = out.report();
        assert!(report.contains("makespan"));
        assert!(out.truncated > 0 || out.evaluated <= 16);
    }
}
