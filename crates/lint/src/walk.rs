//! Deterministic workspace walking.
//!
//! Directory entries are visited in sorted order so findings, JSON output
//! and exit codes are identical across platforms and runs — the analyzer
//! holds itself to the determinism bar it enforces.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];

/// Every `.rs` file under `root`, as sorted `/`-separated relative paths.
pub fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    collect(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative(root, &path));
        }
    }
    Ok(())
}

/// `path` relative to `root` with `/` separators.
fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
