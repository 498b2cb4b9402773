//! The programs the golden documents drive: every `tests/corpus/*.loop`
//! program, then three inline ones — Figure 7 at N = 64, where
//! `--regroup` fires; a one-nest program; and a program with no loop
//! nests.

use std::fmt::Write as _;
use std::path::PathBuf;

use mbb_server::ServeError;

const FIGURE7: &str = "\
program figure7_n64
  array res[64]
  array data[64]
  scalar sum = 0  // printed
  for i = 0, 63
    res[i] = (res[i] + data[i])
  end for
  for j = 0, 63
    sum = (sum + res[j])
  end for
";

const ONE_NEST: &str = "\
program one_nest
  array a[64]
  array b[64]  // live-out
  for i = 0, 63
    b[i] = (a[i] * 2)
  end for
";

pub const NO_NESTS: &str = "\
program no_nests
  array a[8]
  scalar s = 1  // printed
";

/// Every program, as `(name, source)`, corpus first.
pub fn programs() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "loop").then_some(p)
        })
        .collect();
    files.sort();
    let mut out: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let name = format!("corpus/{}", p.file_name().unwrap().to_string_lossy());
            (name, std::fs::read_to_string(p).unwrap())
        })
        .collect();
    for (name, src) in [("figure7_n64", FIGURE7), ("one_nest", ONE_NEST), ("no_nests", NO_NESTS)] {
        out.push((name.to_string(), src.to_string()));
    }
    out
}

/// Appends one command's result under `title`.
pub fn record(doc: &mut String, title: &str, result: Result<String, ServeError>) {
    let _ = writeln!(doc, "=== {title}");
    match result {
        Ok(text) => doc.push_str(&text),
        Err(e) => {
            let _ = writeln!(doc, "error: {e}");
        }
    }
}

/// Compares `actual` with the golden file `tests/golden/{name}`.  On a
/// mismatch it writes `actual` under the Cargo target tmpdir and panics
/// with the first differing line and the `cp` command that updates the
/// golden.
pub fn assert_golden(name: &str, actual: &str) {
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    let expected = std::fs::read_to_string(&golden_path).unwrap_or_default();
    if actual != expected {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, actual).unwrap();
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "output differs from {} at line {}; if the change is intended:\n  cp {} {}",
            golden_path.display(),
            first + 1,
            out.display(),
            golden_path.display()
        );
    }
}
