//! # hpmdr-lint — workspace static analysis for the safety contracts
//!
//! The documented contracts of this codebase — `unsafe` confined to
//! `#[target_feature]` leaf functions with written invariants, the
//! server's "typed error, never a panic" promise, the wire protocol's
//! check-before-allocate rule, relaxed atomics only where nothing is
//! guarded — were, before this crate, enforced by review alone. This
//! binary makes them machine-checked on every commit, the
//! static-analysis mirror of what the `backend_equivalence` suite does
//! for runtime bit-identity.
//!
//! ## The five rules
//!
//! | id | name | contract |
//! |----|------|----------|
//! | L1 | unsafe-safety-comment | every `unsafe` site carries an adjacent `// SAFETY:` invariant |
//! | L2 | target-feature-containment | `#[target_feature]` kernels are called only from same-family kernels or `Isa`-gated dispatch modules |
//! | L3 | panic-freedom | no `unwrap`/`expect`/`panic!`-family in library code of the panic-free crates; no unchecked indexing in wire paths |
//! | L4 | atomics-ordering-audit | every `Ordering::Relaxed` carries an adjacent `// ORDERING:` justification |
//! | L5 | wire-allocation-hygiene | wire-derived allocation sizes are limit-checked before allocating |
//!
//! ## Ratcheted baseline
//!
//! `lint.toml` records accepted debt per `(rule, file)`. Counts may
//! only decrease: new violations fail the run immediately, old ones
//! are burned down deliberately and locked in with
//! `hpmdr-lint --update-baseline`. See [`baseline`].
//!
//! ## Design constraints
//!
//! Zero dependencies — not even the workspace's own shims, because the
//! linter audits them. The lexer ([`lexer`]) is hand-rolled and
//! infallible; the analysis layer ([`cursor`], [`rules::flow`]) is
//! token-stream-based, deliberately *not* a parser: every rule is a
//! local pattern plus just enough scope/attribute context to avoid the
//! classic greps-lie failure modes (raw strings containing `unsafe`,
//! doc comments that look like markers, `#[cfg(test)]` subtrees).

pub mod baseline;
pub mod cursor;
pub mod lexer;
pub mod report;
pub mod rules;

use baseline::LintFile;
use cursor::FileCtx;
use report::Ratchet;
use rules::Finding;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// How to run the workspace pass.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (the directory holding `lint.toml` and the scan
    /// roots).
    pub root: PathBuf,
    /// Path to `lint.toml`; defaults to `<root>/lint.toml`.
    pub lint_toml: PathBuf,
    /// Rewrite `lint.toml` with current counts (ratcheting down only,
    /// unless `allow_growth`).
    pub update_baseline: bool,
    /// Allow `--update-baseline` to raise counts / add entries. For
    /// bootstrapping a newly added rule, not for skipping fixes.
    pub allow_growth: bool,
    /// Write the full diagnostic report to this path.
    pub report_path: Option<PathBuf>,
}

impl Options {
    /// Options rooted at `root` with defaults.
    pub fn new(root: impl Into<PathBuf>) -> Options {
        let root = root.into();
        let lint_toml = root.join("lint.toml");
        Options {
            root,
            lint_toml,
            update_baseline: false,
            allow_growth: false,
            report_path: None,
        }
    }
}

/// Everything a run produced; the binary renders this, tests assert on
/// it.
#[derive(Debug)]
pub struct Outcome {
    /// Every finding, accepted debt included, ordered by file then
    /// line.
    pub findings: Vec<Finding>,
    /// Ratchet verdict against the baseline.
    pub ratchet: Ratchet,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Total baseline budget (sum of all debt counts) before the run.
    pub baseline_total: u64,
    /// Full report text (what `--report` writes).
    pub report: String,
    /// Process exit code: 0 clean (or within baseline), 1 ratchet
    /// violation or refused update, 2 configuration/I-O error.
    pub exit_code: i32,
}

/// Errors from the runner itself (not findings).
#[derive(Debug)]
pub enum RunError {
    /// `lint.toml` could not be parsed.
    Baseline(baseline::ParseError),
    /// A filesystem operation failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Baseline(e) => write!(f, "{e}"),
            RunError::Io(p, e) => write!(f, "{}: {e}", p.display()),
        }
    }
}

impl std::error::Error for RunError {}

/// Run the full workspace pass.
pub fn run(opts: &Options) -> Result<Outcome, RunError> {
    let lint_file = match std::fs::read_to_string(&opts.lint_toml) {
        Ok(text) => baseline::parse(&text).map_err(RunError::Baseline)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => LintFile {
            config: baseline::Config::default(),
            debt: BTreeMap::new(),
        },
        Err(e) => return Err(RunError::Io(opts.lint_toml.clone(), e)),
    };
    let config = &lint_file.config;

    // Collect and analyze every source file.
    let mut files: Vec<PathBuf> = Vec::new();
    for root in &config.scan_roots {
        collect_rs_files(&opts.root.join(root), &mut files);
    }
    files.sort();
    let mut ctxs: Vec<FileCtx> = Vec::new();
    for path in &files {
        let Ok(src) = std::fs::read_to_string(path) else {
            // Non-UTF-8 or unreadable: nothing lintable.
            continue;
        };
        let rel = rel_path(&opts.root, path);
        ctxs.push(FileCtx::new(&rel, &src));
    }

    // Workspace-wide pass: the target-feature index.
    let mut tf_index = rules::target_feature::TfIndex::new();
    for ctx in &ctxs {
        rules::target_feature::index_file(ctx, &mut tf_index);
    }

    // Per-file rule passes.
    let mut findings: Vec<Finding> = Vec::new();
    for ctx in &ctxs {
        rules::unsafe_comment::check(ctx, &mut findings);
        rules::target_feature::check(ctx, &tf_index, &config.dispatch_modules, &mut findings);
        let wire_module = config.wire_modules.iter().any(|m| m == &ctx.path);
        if in_panic_crate(&ctx.path, &config.panic_crates) {
            rules::panic_freedom::check(ctx, wire_module, &mut findings);
        }
        rules::atomics::check(ctx, &config.relaxed_allow_files, &mut findings);
        if wire_module {
            rules::wire_alloc::check(ctx, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let ratchet = Ratchet::compare(&findings, &lint_file.debt);
    let baseline_total: u64 = lint_file.debt.values().sum();
    let mut exit_code = i32::from(ratchet.failed());

    if opts.update_baseline {
        match ratchet.updated_debt(&findings, opts.allow_growth) {
            Some(debt) => {
                let updated = LintFile {
                    config: lint_file.config.clone(),
                    debt,
                };
                std::fs::write(&opts.lint_toml, baseline::render(&updated))
                    .map_err(|e| RunError::Io(opts.lint_toml.clone(), e))?;
                exit_code = 0;
            }
            None => exit_code = 1,
        }
    }

    let report = report::render_report(&findings, &ratchet, ctxs.len(), baseline_total);
    if let Some(path) = &opts.report_path {
        std::fs::write(path, &report).map_err(|e| RunError::Io(path.clone(), e))?;
    }
    Ok(Outcome {
        files_scanned: ctxs.len(),
        findings,
        ratchet,
        baseline_total,
        report,
        exit_code,
    })
}

/// Does `rel_path` live in the library source of one of the panic-free
/// crates? An entry containing `/` is a workspace-relative crate
/// directory (`shims/serde_json`); a bare name means `crates/{name}`.
fn in_panic_crate(rel_path: &str, panic_crates: &[String]) -> bool {
    panic_crates.iter().any(|c| {
        let src = if c.contains('/') {
            format!("{}/src/", c.trim_end_matches('/'))
        } else {
            format!("crates/{c}/src/")
        };
        rel_path.starts_with(&src)
    })
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalize to forward slashes so lint.toml entries are portable.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Directory names never scanned: build output, lint fixtures (known-
/// bad sources), VCS internals.
const SKIP_DIRS: &[&str] = &["target", "fixtures", ".git"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_crate_scoping_is_src_only() {
        let crates = vec!["core".to_string()];
        assert!(in_panic_crate("crates/core/src/api.rs", &crates));
        assert!(!in_panic_crate("crates/mgard/src/grid.rs", &crates));
        assert!(!in_panic_crate("tests/src/lib.rs", &crates));
    }

    #[test]
    fn bare_panic_crate_names_mean_crates_dir() {
        let crates = vec!["serde_json".to_string()];
        assert!(!in_panic_crate("shims/serde_json/src/lib.rs", &crates));
        assert!(in_panic_crate("crates/serde_json/src/lib.rs", &crates));
    }

    #[test]
    fn panic_crate_paths_are_workspace_relative_dirs() {
        let crates = vec!["shims/serde_json".to_string(), "shims/serde/".to_string()];
        assert!(in_panic_crate("shims/serde_json/src/lib.rs", &crates));
        assert!(in_panic_crate("shims/serde/src/lib.rs", &crates));
        assert!(!in_panic_crate("shims/serde_derive/src/lib.rs", &crates));
        assert!(!in_panic_crate("shims/serde_json/tests/t.rs", &crates));
        assert!(!in_panic_crate(
            "crates/shims/serde_json/src/lib.rs",
            &crates
        ));
    }
}
