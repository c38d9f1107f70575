//! End-to-end checks of the `repro` binary: `--quick` prints exactly the
//! tables the library renders for `ExpOptions::quick()` (the settings the
//! golden hashes pin), a run writes nothing into its working directory,
//! and malformed command lines exit 2.

use batchsched::experiments::{run_artifact_with, ExpOptions};
use batchsched::parallel::ExecCtx;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh empty directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("repro_cli_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn entries(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .expect("read temp dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .to_string_lossy()
                    .into_owned()
            })
            .collect()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repro(dir: &TempDir, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir.0)
        .output()
        .expect("spawn repro")
}

#[test]
fn quick_fig8_prints_the_library_table_and_writes_nothing() {
    let dir = TempDir::new("fig8");
    let out = repro(&dir, &["--quick", "--jobs", "1", "fig8"]);
    assert!(
        out.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ctx = ExecCtx::new(1);
    let want = run_artifact_with("fig8", &ExpOptions::quick().with_jobs(1), &ctx)
        .table
        .render();
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{want}\n"));
    // 8 λ points × 6 schedulers, each simulated once.
    let cache = ctx.cache();
    assert_eq!((cache.sim_runs(), cache.hits(), cache.len()), (48, 0, 48));
    let left = dir.entries();
    assert!(left.is_empty(), "repro wrote {left:?} into its cwd");
}

#[test]
fn malformed_command_lines_exit_2() {
    let dir = TempDir::new("usage");
    for args in [
        &["--jobs", "0", "fig8"][..],
        &["--jobs", "abc", "fig8"],
        &["--no-such-flag", "fig8"],
        &["--quick", "fig99"],
        &["--quick", "--faults", "crash=oops"],
    ] {
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?} should exit 2");
    }
    let left = dir.entries();
    assert!(left.is_empty(), "repro wrote {left:?} into its cwd");
}
