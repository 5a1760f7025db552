//! Support shared by the integration tests that write files.

use std::path::{Path, PathBuf};

/// A file under the temp directory, named after the test file's `prefix`,
/// the process and `name`, and removed when the guard drops, so a test
/// leaves nothing behind whether it passes or fails.
pub struct TempFile(PathBuf);

impl TempFile {
    pub fn new(prefix: &str, name: &str) -> TempFile {
        TempFile(std::env::temp_dir().join(format!("{prefix}-{}-{name}", std::process::id())))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

impl std::ops::Deref for TempFile {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}
