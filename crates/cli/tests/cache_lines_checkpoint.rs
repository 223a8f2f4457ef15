//! `uncover --resume` over a checkpoint directory from the build whose
//! conflict cache was a FIFO of every classification, so every phase file
//! carries it as `cache.N` lines: an exhaustive run of machine No.4 stopped
//! by `--budget 600` after the partition. The resumed run ignores those
//! lines, prints exactly what a straight `uncover --machine 4` prints, and
//! the phase files it adds carry no `cache.N` line.

use std::path::Path;
use std::process::Command;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/cache_lines_checkpoint"
);

fn uncover(extra: &[&std::ffi::OsStr]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_dramdig"))
        .args(["uncover", "--machine", "4"])
        .args(extra)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap()
}

#[test]
fn resuming_a_checkpoint_with_cache_lines_prints_the_straight_run() {
    let dir = std::env::temp_dir().join(format!("dramdig-cache-lines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(FIXTURE).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let resumed = uncover(&[
        "--checkpoint".as_ref(),
        dir.as_os_str(),
        "--resume".as_ref(),
    ]);
    assert_eq!(resumed, uncover(&[]));
    for phase in ["03-detect", "04-fine", "05-validation"] {
        let text = std::fs::read_to_string(dir.join(format!("{phase}.phase"))).unwrap();
        assert!(!text.contains("\ncache."), "{phase}: {text}");
    }
    // The restored phase files are read, never rewritten.
    let restored = std::fs::read(dir.join("02-partition.phase")).unwrap();
    assert_eq!(
        restored,
        std::fs::read(Path::new(FIXTURE).join("02-partition.phase")).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
