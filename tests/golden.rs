//! Byte-exact golden snapshots of `dgr_post::guide` and
//! `dgr_post::refine` output.
//!
//! Fixed oracle-generated designs are routed end to end, assigned to
//! layers, and rendered as route-guide text; the result must match the
//! committed files under `tests/golden/` byte for byte. The refine
//! snapshots use small congested designs on which the maze rip-up pass
//! really reroutes nets, and record the routes after `refine` plus the
//! guide built from them. The pipeline is pinned to 4 reduction chunks
//! so floating-point sums are reproducible across machines (see the
//! autodiff determinism tests).
//!
//! To regenerate after an intentional output change:
//!
//! ```text
//! DGR_UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::path::PathBuf;

use dgr::autodiff::parallel;
use dgr::core::{DgrConfig, DgrRouter};
use dgr::post::{assign_layers, refine, AssignConfig, RefineConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind, EXEC_LOCK};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

fn guide_text(seed: u64) -> String {
    let spec = CaseSpec {
        // PathCost specs keep instances small but still multi-net
        num_layers: 3,
        ..CaseSpec::sample(CheckKind::PathCost, seed)
    };
    let design = gen_design(&spec, &mut case_rng(&spec));
    let cfg = DgrConfig {
        iterations: 60,
        seed,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(cfg).route(&design).expect("routes");
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    RouteGuide::from_assignment(&design, &assigned).to_text()
}

/// Routes a small congested design, refines it, and returns the refined
/// routes followed by the guide built from them.
fn refine_text(seed: u64) -> String {
    let spec = CaseSpec {
        width: 32,
        height: 32,
        tracks: 4.0,
        num_nets: 90,
        max_pins: 4,
        num_layers: 3,
        hotspot: true,
        pin_density: true,
        ..CaseSpec::sample(CheckKind::PathCost, seed)
    };
    let design = gen_design(&spec, &mut case_rng(&spec));
    let cfg = DgrConfig {
        iterations: 60,
        seed,
        ..DgrConfig::default()
    };
    let mut solution = DgrRouter::new(cfg).route(&design).expect("routes");
    let report = refine(&design, &mut solution, RefineConfig::default()).expect("refines");
    assert!(
        report.nets_rerouted > 0 && report.overflowed_after < report.overflowed_before,
        "seed {seed}: refine must do real work on the golden design: {report:?}"
    );
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    let guide = RouteGuide::from_assignment(&design, &assigned).to_text();
    format!("{}{guide}", solution.to_text())
}

/// Compares each `(seed, text)` with `tests/golden/{stem}_seed{seed}.txt`,
/// or rewrites the files when `DGR_UPDATE_GOLDEN` is set.
fn check_golden(stem: &str, render: fn(u64) -> String) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let update = std::env::var_os("DGR_UPDATE_GOLDEN").is_some();

    let _guard = EXEC_LOCK.lock().unwrap();
    parallel::set_num_threads(4);
    let texts: Vec<(u64, String)> = GOLDEN_SEEDS.iter().map(|&s| (s, render(s))).collect();
    parallel::set_num_threads(0);
    drop(_guard);

    for (seed, text) in texts {
        let path = dir.join(format!("{stem}_seed{seed}.txt"));
        if update {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &text).expect("write golden file");
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "read {}: {e}\n(run with DGR_UPDATE_GOLDEN=1 to create)",
                path.display()
            )
        });
        assert!(
            text == want,
            "{stem} output for seed {seed} diverged from {}\n\
             --- got ---\n{text}\n--- want ---\n{want}\n\
             If the change is intentional, regenerate with DGR_UPDATE_GOLDEN=1.",
            path.display()
        );
    }
}

#[test]
fn guide_output_matches_golden_files() {
    check_golden("guide", guide_text);
}

#[test]
fn refine_output_matches_golden_files() {
    check_golden("refine", refine_text);
}
