//! On-demand scaling and reference mode (`--scaling`), not a gated
//! workload: reruns the index build on both graph families and the
//! OIP-SR solve at three doubling sizes, prints the fitted log-log
//! exponent of time (and of additions) against `n`, and prints the
//! reference figures the README quotes.

use crate::pipeline::{edit_batch, generate, options, Family};
use crate::trace::median;
use simrank_core::index::SimRankIndex;
use simrank_core::{oip, persist, psum, SharingPlan};
use simrank_serve::SplitMix64;
use std::path::Path;
use std::time::Instant;

/// Least-squares slope of `ln y` against `ln x`.
fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let k = logs.len() as f64;
    let (mx, my) = (
        logs.iter().map(|p| p.0).sum::<f64>() / k,
        logs.iter().map(|p| p.1).sum::<f64>() / k,
    );
    let cov: f64 = logs.iter().map(|&(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = logs.iter().map(|&(x, _)| (x - mx) * (x - mx)).sum();
    cov / var
}

/// Prints one series and its fitted exponents.
fn report(label: &str, rows: &[(usize, usize, f64, u64)]) {
    for &(n, m, secs, adds) in rows {
        println!("{label}: n={n} m={m} time={secs:.4} s adds={adds}");
    }
    let time: Vec<(f64, f64)> = rows.iter().map(|r| (r.0 as f64, r.2)).collect();
    let adds: Vec<(f64, f64)> = rows.iter().map(|r| (r.0 as f64, r.3 as f64)).collect();
    println!(
        "{label}: exponent time~n^{:.2} adds~n^{:.2}",
        loglog_slope(&time),
        loglog_slope(&adds)
    );
}

/// Runs the scaling series and the reference figures.
pub fn run(dir: &Path, seed: u64) -> Result<(), String> {
    let index_opts = options(1e-4);
    for (label, family, base) in [
        ("index build berkstan_like", Family::BerkStan, 350),
        (
            "index build preferential_attachment",
            Family::Preferential,
            250,
        ),
    ] {
        let rows: Vec<_> = [base, 2 * base, 4 * base]
            .into_iter()
            .map(|n| {
                let g = generate(family, n, seed);
                let t = Instant::now();
                let (_, r) = SimRankIndex::build_with_report(&g, &index_opts);
                (n, g.edge_count(), t.elapsed().as_secs_f64(), r.adds)
            })
            .collect();
        report(label, &rows);
    }

    let solve_opts = options(1e-3);
    let (mut oip_rows, mut psum_rows) = (Vec::new(), Vec::new());
    for n in [500, 1000, 2000] {
        let g = generate(Family::BerkStan, n, seed);
        let t = Instant::now();
        let plan = SharingPlan::build(&g, &solve_opts);
        let (_, r) = oip::oip_simrank_with_plan(&g, &plan, &solve_opts);
        oip_rows.push((n, g.edge_count(), t.elapsed().as_secs_f64(), r.adds));
        let t = Instant::now();
        let (_, r) = psum::psum_simrank_with_report(&g, &solve_opts);
        psum_rows.push((n, g.edge_count(), t.elapsed().as_secs_f64(), r.adds));
    }
    report("OIP-SR solve berkstan_like", &oip_rows);
    report("psum-SR solve berkstan_like", &psum_rows);

    // SRI1 save vs load, and repair vs build adds, at the index-serve
    // size and on the heavy-tailed family.
    let path = dir.join(format!("scaling-p{}.sri", std::process::id()));
    for (label, family, n) in [
        ("berkstan_like", Family::BerkStan, 700),
        ("preferential_attachment", Family::Preferential, 500),
    ] {
        let g = generate(family, n, seed);
        let (index, build) = SimRankIndex::build_with_report(&g, &index_opts);
        let (mut saves, mut loads) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let t = Instant::now();
            persist::save_index(&index, &path).map_err(|e| e.to_string())?;
            saves.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            persist::load_index(&path).map_err(|e| e.to_string())?;
            loads.push(t.elapsed().as_secs_f64());
        }
        println!(
            "SRI1 {label}({n}): save {:.3} ms, load {:.3} ms ({} bytes)",
            median(&saves) * 1e3,
            median(&loads) * 1e3,
            std::fs::metadata(&path).map_or(0, |m| m.len())
        );
        let mut rng = SplitMix64::new(seed ^ 0xed17_ba7c);
        let batch = edit_batch(&g, &mut rng);
        let (_, repair) = index
            .repair_with_report(&batch, &index_opts)
            .map_err(|e| e.to_string())?;
        println!(
            "repair {label}({n}): {} rounds / {} adds vs build {} rounds / {} adds (ratio {:.3})",
            repair.iterations,
            repair.adds,
            build.iterations,
            build.adds,
            repair.adds as f64 / build.adds as f64
        );
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}
