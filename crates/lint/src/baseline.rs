//! `lint.toml`: rule configuration plus the **ratcheted debt
//! baseline**.
//!
//! The baseline records, per `(rule, file)`, how many findings existed
//! when the debt was last accepted. A run fails only when a count
//! *exceeds* its baseline — new violations are stopped at the door
//! while existing debt is burned down deliberately. Counts may only
//! decrease: `--update-baseline` refuses to raise any entry (fix the
//! new violation instead), and `--allow-growth` exists solely for
//! bootstrap and for onboarding a newly written rule.
//!
//! The file is a deliberately small TOML subset (strings, integers,
//! string arrays, `[config]`, repeated `[[debt]]` tables) parsed and
//! written by hand — this crate must not depend on anything, including
//! the workspace's own serde shims, so it can audit them.

use crate::rules::RuleId;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Key of one debt entry: which rule, in which workspace-relative file.
pub type DebtKey = (RuleId, String);

/// Parsed contents of `lint.toml`.
#[derive(Debug, Clone)]
pub struct LintFile {
    /// Rule configuration.
    pub config: Config,
    /// Accepted debt per `(rule, file)`.
    pub debt: BTreeMap<DebtKey, u64>,
}

/// Rule configuration (the `[config]` table).
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names under `crates/` whose library code must be
    /// panic-free (L3).
    pub panic_crates: Vec<String>,
    /// Workspace-relative paths of wire/protocol modules (L5 scope and
    /// the L3 indexing check).
    pub wire_modules: Vec<String>,
    /// Workspace-relative paths of `Isa`-gated dispatch modules allowed
    /// to call `#[target_feature]` kernels (L2); empty in this
    /// repository, which has no hand-written SIMD.
    pub dispatch_modules: Vec<String>,
    /// Files whose `Ordering::Relaxed` sites are accepted wholesale
    /// (L4); empty in this repository — annotate instead.
    pub relaxed_allow_files: Vec<String>,
    /// Directories (relative to the workspace root) scanned for `.rs`
    /// sources.
    pub scan_roots: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            panic_crates: ["core", "netstore", "server", "exec"]
                .map(String::from)
                .to_vec(),
            wire_modules: Vec::new(),
            dispatch_modules: Vec::new(),
            relaxed_allow_files: Vec::new(),
            scan_roots: ["crates", "examples", "tests", "shims"]
                .map(String::from)
                .to_vec(),
        }
    }
}

/// A parse failure, with the 1-based line it occurred on.
#[derive(Debug)]
pub struct ParseError {
    /// Line number in `lint.toml`.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse the TOML subset. Unknown keys are ignored (forward
/// compatibility); malformed lines are errors.
pub fn parse(src: &str) -> Result<LintFile, ParseError> {
    enum Section {
        None,
        Config,
        Debt,
    }
    let mut config = Config::default();
    let mut debt: BTreeMap<DebtKey, u64> = BTreeMap::new();
    let mut section = Section::None;
    let mut cur_rule: Option<RuleId> = None;
    let mut cur_file: Option<String> = None;
    let mut cur_count: Option<u64> = None;

    let mut flush = |rule: &mut Option<RuleId>,
                     file: &mut Option<String>,
                     count: &mut Option<u64>,
                     line: usize|
     -> Result<(), ParseError> {
        match (rule.take(), file.take(), count.take()) {
            (None, None, None) => Ok(()),
            (Some(r), Some(f), Some(c)) => {
                debt.insert((r, f), c);
                Ok(())
            }
            _ => Err(ParseError {
                line,
                message: "a [[debt]] entry needs all of rule, file, count".to_string(),
            }),
        }
    };

    let lines: Vec<&str> = src.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let raw = strip_comment(lines[i]);
        let line = raw.trim();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line == "[config]" {
            flush(&mut cur_rule, &mut cur_file, &mut cur_count, lineno)?;
            section = Section::Config;
            continue;
        }
        if line == "[[debt]]" {
            flush(&mut cur_rule, &mut cur_file, &mut cur_count, lineno)?;
            section = Section::Debt;
            continue;
        }
        if line.starts_with('[') {
            return Err(ParseError {
                line: lineno,
                message: format!("unknown section {line}"),
            });
        }
        let Some(eq) = line.find('=') else {
            return Err(ParseError {
                line: lineno,
                message: "expected `key = value`".to_string(),
            });
        };
        let key = line[..eq].trim();
        let mut value = line[eq + 1..].trim().to_string();
        // Multi-line arrays: accumulate until the closing bracket.
        if value.starts_with('[') && !balanced_array(&value) {
            while i < lines.len() {
                let cont = strip_comment(lines[i]);
                value.push(' ');
                value.push_str(cont.trim());
                i += 1;
                if balanced_array(&value) {
                    break;
                }
            }
        }
        match section {
            Section::Config => match key {
                "panic_crates" => config.panic_crates = parse_string_array(&value, lineno)?,
                "wire_modules" => config.wire_modules = parse_string_array(&value, lineno)?,
                "dispatch_modules" => config.dispatch_modules = parse_string_array(&value, lineno)?,
                "relaxed_allow_files" => {
                    config.relaxed_allow_files = parse_string_array(&value, lineno)?
                }
                "scan_roots" => config.scan_roots = parse_string_array(&value, lineno)?,
                _ => {}
            },
            Section::Debt => match key {
                "rule" => {
                    let s = parse_string(&value, lineno)?;
                    cur_rule = Some(RuleId::parse(&s).ok_or(ParseError {
                        line: lineno,
                        message: format!("unknown rule id {s:?}"),
                    })?);
                }
                "file" => cur_file = Some(parse_string(&value, lineno)?),
                "count" => {
                    cur_count = Some(value.parse::<u64>().map_err(|_| ParseError {
                        line: lineno,
                        message: format!("count must be a non-negative integer, got {value:?}"),
                    })?)
                }
                _ => {}
            },
            Section::None => match key {
                "version" => {}
                _ => {
                    return Err(ParseError {
                        line: lineno,
                        message: format!("key {key:?} outside any section"),
                    })
                }
            },
        }
    }
    flush(&mut cur_rule, &mut cur_file, &mut cur_count, lines.len())?;
    Ok(LintFile { config, debt })
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn balanced_array(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0
}

fn parse_string(value: &str, line: usize) -> Result<String, ParseError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ParseError {
            line,
            message: format!("expected a quoted string, got {value:?}"),
        })
    }
}

fn parse_string_array(value: &str, line: usize) -> Result<Vec<String>, ParseError> {
    let v = value.trim();
    if !(v.starts_with('[') && v.ends_with(']')) {
        return Err(ParseError {
            line,
            message: format!("expected an array of strings, got {value:?}"),
        });
    }
    let inner = &v[1..v.len() - 1];
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, line)?);
    }
    Ok(out)
}

/// Serialize config + debt back to `lint.toml` form.
pub fn render(file: &LintFile) -> String {
    let mut s = String::new();
    s.push_str(
        "# hpmdr-lint configuration and ratcheted debt baseline.\n\
         #\n\
         # Counts may only decrease. A run fails when any (rule, file) count\n\
         # exceeds its entry here; burn debt down, then refresh with:\n\
         #\n\
         #     cargo run -p hpmdr-lint -- --update-baseline\n\
         #\n\
         # (--update-baseline refuses to raise a count; --allow-growth is for\n\
         # bootstrapping a newly added rule only.)\n\n",
    );
    s.push_str("version = 1\n\n[config]\n");
    let arr = |s: &mut String, key: &str, items: &[String]| {
        if items.is_empty() {
            let _ = writeln!(s, "{key} = []");
        } else {
            let _ = writeln!(s, "{key} = [");
            for item in items {
                let _ = writeln!(s, "    \"{item}\",");
            }
            let _ = writeln!(s, "]");
        }
    };
    arr(&mut s, "scan_roots", &file.config.scan_roots);
    arr(&mut s, "panic_crates", &file.config.panic_crates);
    arr(&mut s, "wire_modules", &file.config.wire_modules);
    arr(&mut s, "dispatch_modules", &file.config.dispatch_modules);
    arr(
        &mut s,
        "relaxed_allow_files",
        &file.config.relaxed_allow_files,
    );
    for ((rule, path), count) in &file.debt {
        let _ = write!(
            &mut s,
            "\n[[debt]]\nrule = \"{}\"\nfile = \"{path}\"\ncount = {count}\n",
            rule.as_str()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_config_and_debt() {
        let mut debt = BTreeMap::new();
        debt.insert((RuleId::L3, "crates/core/src/api.rs".to_string()), 4);
        debt.insert((RuleId::L4, "crates/server/src/server.rs".to_string()), 2);
        let file = LintFile {
            config: Config {
                wire_modules: vec!["crates/netstore/src/wire.rs".to_string()],
                dispatch_modules: vec!["crates/mgard/src/dispatch.rs".to_string()],
                ..Config::default()
            },
            debt,
        };
        let text = render(&file);
        let back = parse(&text).unwrap();
        assert_eq!(back.debt, file.debt);
        assert_eq!(back.config.wire_modules, file.config.wire_modules);
        assert_eq!(back.config.panic_crates, file.config.panic_crates);
    }

    #[test]
    fn comments_and_unknown_keys_are_tolerated() {
        let text = "# hi\nversion = 1\n[config]\nfuture_knob = \"x\" # trailing\n\
                    panic_crates = [\"core\"]\n";
        let f = parse(text).unwrap();
        assert_eq!(f.config.panic_crates, ["core"]);
    }

    #[test]
    fn incomplete_debt_entry_is_an_error() {
        let text = "[[debt]]\nrule = \"L1\"\nfile = \"x.rs\"\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn unknown_rule_id_is_an_error() {
        let text = "[[debt]]\nrule = \"L9\"\nfile = \"x.rs\"\ncount = 1\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let text = "[config]\nwire_modules = [\"a#b.rs\"]\n";
        assert_eq!(parse(text).unwrap().config.wire_modules, ["a#b.rs"]);
    }
}
