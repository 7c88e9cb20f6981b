//! A short run of every workload, untraced and traced, that must pass
//! the benchmark's own output checks with no failed operation.
//!
//! Needs the release server binary: `cargo build --release -p mvcli`
//! at the repository root, or `E2EBENCH_MVROBUST=/path/to/mvrobust`.

use e2ebench::gen::Workload;
use e2ebench::run::{run, Opts};
use std::path::PathBuf;

fn mvrobust() -> PathBuf {
    if let Some(p) = std::env::var_os("E2EBENCH_MVROBUST") {
        return PathBuf::from(p);
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target"));
    let bin = target.join("release/mvrobust");
    assert!(
        bin.exists(),
        "{} is missing: run `cargo build --release -p mvcli` at the repository root \
         or set E2EBENCH_MVROBUST",
        bin.display()
    );
    bin
}

#[test]
fn every_workload_passes_its_checks() {
    let bin = mvrobust();
    let work = std::env::temp_dir().join(format!("e2ebench-smoke-{}", std::process::id()));
    for w in Workload::ALL {
        for trace in [false, true] {
            let seed = 3;
            let out = run(&Opts {
                workload: w,
                seed,
                seconds: 1.0,
                trace,
                bin: bin.clone(),
                work: work.clone(),
                threads: 2,
            })
            .unwrap_or_else(|e| panic!("{} (seed {seed}, trace {trace}): {e}", w.name()));
            assert!(
                out.problems.is_empty(),
                "{} (seed {seed}, trace {trace}): {:?}",
                w.name(),
                out.problems
            );
            assert_eq!(out.failed, 0, "{} had failed operations", w.name());
            assert!(out.attempted > 0);
            for (name, value, _) in &out.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", w.name());
            }
            if !trace {
                for (name, value, _) in &out.metrics {
                    assert!(*value > 0.0, "{}: {name} = {value}", w.name());
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
}
