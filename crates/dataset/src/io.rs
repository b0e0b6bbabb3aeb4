//! Dataset import/export as PGM directories.
//!
//! Two purposes:
//!
//! 1. **Export** the synthetic dataset so humans can inspect it and other
//!    tools can consume it.
//! 2. **Import** window directories — users who hold a copy of the real
//!    INRIA person dataset (which cannot ship in this repository) can
//!    crop it to 64×128 windows, drop the files in `positives/` and
//!    `negatives/` folders, and run every experiment harness on the real
//!    data.

use std::fs;
use std::path::{Path, PathBuf};

use rtped_core::Error;
use rtped_image::pnm::{load_pnm, save_pgm};
use rtped_image::GrayImage;

/// A labelled window set loaded from or saved to disk.
#[derive(Debug, Clone)]
pub struct WindowSet {
    /// Pedestrian windows.
    pub positives: Vec<GrayImage>,
    /// Background windows.
    pub negatives: Vec<GrayImage>,
}

/// Writes a window set as `<root>/positives/NNNNN.pgm` and
/// `<root>/negatives/NNNNN.pgm`.
///
/// # Errors
///
/// Returns [`Error::Io`] on filesystem failures.
pub fn export_windows(root: impl AsRef<Path>, set: &WindowSet) -> Result<(), Error> {
    let root = root.as_ref();
    for (sub, windows) in [("positives", &set.positives), ("negatives", &set.negatives)] {
        let dir = root.join(sub);
        fs::create_dir_all(&dir)?;
        for (i, window) in windows.iter().enumerate() {
            save_pgm(dir.join(format!("{i:05}.pgm")), window).map_err(|e| {
                Error::format(format!(
                    "bad window file {}: {e}",
                    dir.join(format!("{i:05}.pgm")).display()
                ))
            })?;
        }
    }
    Ok(())
}

/// Loads a window set from `<root>/positives` and `<root>/negatives`.
///
/// Files are read in lexicographic order so loads are deterministic.
/// Every window must have exactly `window` dimensions (pass the detector
/// geometry, normally `(64, 128)`).
///
/// # Errors
///
/// Returns [`Error::Io`] for missing directories and [`Error::Format`]
/// for empty directories, unparsable files, or size mismatches.
pub fn import_windows(root: impl AsRef<Path>, window: (usize, usize)) -> Result<WindowSet, Error> {
    let root = root.as_ref();
    let positives = load_dir(&root.join("positives"), window)?;
    let negatives = load_dir(&root.join("negatives"), window)?;
    Ok(WindowSet {
        positives,
        negatives,
    })
}

fn load_dir(dir: &Path, window: (usize, usize)) -> Result<Vec<GrayImage>, Error> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.extension()
                .and_then(|e| e.to_str())
                .map(|e| matches!(e.to_ascii_lowercase().as_str(), "pgm" | "ppm" | "pnm"))
                .unwrap_or(false)
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(Error::format(format!(
            "no windows found in {}",
            dir.display()
        )));
    }
    let mut windows = Vec::with_capacity(paths.len());
    for path in paths {
        let img = load_pnm(&path)
            .map_err(|e| Error::format(format!("bad window file {}: {e}", path.display())))?;
        if img.dimensions() != window {
            return Err(Error::format(format!(
                "window {} is {}x{}, expected {}x{}",
                path.display(),
                img.dimensions().0,
                img.dimensions().1,
                window.0,
                window.1
            )));
        }
        windows.push(img);
    }
    Ok(windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::InriaProtocol;

    fn temp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("rtped_dataset_io").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_set() -> WindowSet {
        let ds = InriaProtocol::builder()
            .train_positives(1)
            .train_negatives(1)
            .test_positives(3)
            .test_negatives(5)
            .seed(77)
            .build()
            .unwrap();
        WindowSet {
            positives: ds.test_positives().to_vec(),
            negatives: ds.test_negatives().to_vec(),
        }
    }

    #[test]
    fn export_import_roundtrip() {
        let root = temp_root("roundtrip");
        let set = tiny_set();
        export_windows(&root, &set).unwrap();
        let back = import_windows(&root, (64, 128)).unwrap();
        assert_eq!(back.positives, set.positives);
        assert_eq!(back.negatives, set.negatives);
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn import_checks_window_size() {
        let root = temp_root("wrong_size");
        let set = tiny_set();
        export_windows(&root, &set).unwrap();
        let err = import_windows(&root, (32, 64)).unwrap_err();
        assert!(matches!(err, Error::Format(_)));
        assert!(err.to_string().contains("expected 32x64"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn empty_directory_is_an_error() {
        let root = temp_root("empty");
        fs::create_dir_all(root.join("positives")).unwrap();
        fs::create_dir_all(root.join("negatives")).unwrap();
        let err = import_windows(&root, (64, 128)).unwrap_err();
        assert!(matches!(err, Error::Format(_)));
        assert!(err.to_string().contains("no windows found"));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let err = import_windows("/nonexistent/rtped/ds", (64, 128)).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn loads_are_deterministically_ordered() {
        let root = temp_root("ordering");
        let set = tiny_set();
        export_windows(&root, &set).unwrap();
        let a = import_windows(&root, (64, 128)).unwrap();
        let b = import_windows(&root, (64, 128)).unwrap();
        assert_eq!(a.positives, b.positives);
        fs::remove_dir_all(&root).ok();
    }
}
