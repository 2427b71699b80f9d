//! `dgr train --batch N` end to end: the batch trains seeds seed, seed+1,
//! … one after another, so every per-seed line it prints must equal the
//! line a standalone `dgr train --seed` run prints, and the extracted
//! best solution must be that seed's standalone solution.

use std::path::Path;
use std::process::Command;

use dgr::io::{IspdLikeConfig, IspdLikeGenerator};

fn train(design: &Path, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dgr"))
        .env("DGR_LEDGER", "off") // keep CLI tests off the real ledger
        .args([
            "train",
            design.to_str().unwrap(),
            "--iterations",
            "30",
            "--quiet",
        ])
        .args(extra)
        .output()
        .expect("spawn dgr");
    assert!(
        out.status.success(),
        "dgr train {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `  seed …  final loss …` lines of a `dgr train` run.
fn seed_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("seed "))
        .collect()
}

/// Everything after the `best:` header: the extracted solution's metrics.
fn best_metrics(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("best:"))
        .skip(1)
        .collect()
}

#[test]
fn train_batch_reports_each_seed_as_its_standalone_run() {
    let dir = std::env::temp_dir().join("dgr_batch_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let design_path = dir.join("design.txt");
    let design = IspdLikeGenerator::new(IspdLikeConfig {
        width: 24,
        height: 24,
        num_nets: 60,
        num_layers: 3,
        seed: 17,
        ..IspdLikeConfig::default()
    })
    .generate()
    .expect("valid config");
    std::fs::write(&design_path, dgr::io::write_design(&design)).unwrap();

    let batch = train(&design_path, &["--batch", "2", "--seed", "17"]);
    let solo: Vec<String> = ["17", "18"]
        .iter()
        .map(|s| train(&design_path, &["--seed", s]))
        .collect();

    let lanes = seed_lines(&batch);
    assert_eq!(lanes.len(), 2, "one line per seed:\n{batch}");
    for (lane, single) in lanes.iter().zip(&solo) {
        assert_eq!(
            vec![*lane],
            seed_lines(single),
            "batch lane diverged from its standalone run"
        );
    }

    let best = batch
        .lines()
        .find(|l| l.starts_with("best:"))
        .expect("best line");
    let best_solo = if best.starts_with("best: seed 17 ") {
        &solo[0]
    } else {
        &solo[1]
    };
    assert_eq!(
        best_metrics(&batch),
        best_metrics(best_solo),
        "best lane's solution differs from the standalone run ({best})"
    );
}
