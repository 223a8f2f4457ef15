//! `uncover --resume` over a checkpoint directory whose `config.txt` has no
//! checksum trailer — the 18-key format written before the configuration
//! was cut to the five settable fields — must refuse to continue, exit 1
//! and tell the user to clear the directory.

use std::path::Path;
use std::process::Command;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/untrailed_checkpoint"
);

fn copy_fixture(to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(FIXTURE).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

#[test]
fn uncover_resume_refuses_an_untrailed_config_and_exits_1() {
    let dir = std::env::temp_dir().join(format!("dramdig-untrailed-{}", std::process::id()));
    copy_fixture(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_dramdig"))
        .args(["uncover", "--machine", "4", "--checkpoint"])
        .arg(&dir)
        .arg("--resume")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("config.txt"), "{stderr}");
    assert!(
        stderr.contains("clear the checkpoint directory"),
        "{stderr}"
    );
    // Nothing was measured or rewritten: the refused file is untouched.
    assert_eq!(
        std::fs::read(dir.join("config.txt")).unwrap(),
        std::fs::read(Path::new(FIXTURE).join("config.txt")).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
