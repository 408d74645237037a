//! **L2 — target-feature containment.** A `#[target_feature(enable =
//! "…")]` function compiles against instructions the host may not
//! have; calling one is only sound where the ISA is known present.
//! This rule confines such calls to (a) other `#[target_feature]`
//! functions of the *same ISA family* — the caller already established
//! availability — or (b) allowlisted dispatch modules, whose job is to
//! gate on a detected instruction-set value (an `Isa`) before jumping to
//! a kernel.
//!
//! An allowlisted dispatch module that never mentions `Isa` has lost
//! the property the allowlist encodes, so that degenerate state is a
//! finding too. Calls through function pointers are invisible to a
//! token-level pass; the dispatch-module allowlist is what keeps a
//! kernel pointer table auditable, because such tables must be built
//! inside those modules. The workspace ships no hand-written SIMD today,
//! so the allowlist is empty and any `#[target_feature]` call outside a
//! same-family kernel is a finding.

use super::{emit, Finding, RuleId};
use crate::cursor::{Family, FileCtx};
use std::collections::{HashMap, HashSet};

/// Workspace-wide index of `#[target_feature]` functions: name → the
/// ISA families it is compiled for (a name may have per-ISA variants).
pub type TfIndex = HashMap<String, HashSet<Family>>;

/// Collect one file's `#[target_feature]` functions into `index`.
pub fn index_file(ctx: &FileCtx, index: &mut TfIndex) {
    for scope in &ctx.scopes {
        if scope.kind == "fn" {
            if let (Some(name), Some(fam)) = (&scope.name, scope.target_feature) {
                index.entry(name.clone()).or_default().insert(fam);
            }
        }
    }
}

/// Run L2 over one file against the workspace index.
pub fn check(ctx: &FileCtx, index: &TfIndex, dispatch_modules: &[String], out: &mut Vec<Finding>) {
    let allowlisted = dispatch_modules.iter().any(|m| m == &ctx.path);
    if allowlisted {
        let mentions_isa = ctx.code.iter().any(|&i| ctx.toks[i].is_ident("Isa"));
        if !mentions_isa {
            out.push(Finding {
                file: ctx.path.clone(),
                line: 1,
                rule: RuleId::L2,
                message: "allowlisted dispatch module never references `Isa`".to_string(),
                hint: "a dispatch module earns its allowlist entry by gating kernel calls \
                       on the pinned `Isa`; gate here or drop the module from \
                       `dispatch_modules` in lint.toml"
                    .to_string(),
            });
        }
        return;
    }
    for pos in 0..ctx.code.len() {
        let Some(t) = ctx.next_code(pos, 0) else {
            break;
        };
        let Some(families) = index.get(&t.text) else {
            continue;
        };
        if !ctx.next_code(pos, 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // The definition itself (`unsafe fn name(`), not a call.
        if ctx.prev_code(pos, 1).is_some_and(|p| p.is_ident("fn")) {
            continue;
        }
        // A method of the same name (`x.len()`-style) is not the
        // free-function kernel.
        if ctx.prev_code(pos, 1).is_some_and(|p| p.is_punct('.')) {
            continue;
        }
        let caller_fam = ctx.enclosing_fn(pos).and_then(|f| f.target_feature);
        if caller_fam.is_some_and(|fam| families.contains(&fam)) {
            continue;
        }
        emit(
            out,
            ctx,
            Finding {
                file: ctx.path.clone(),
                line: t.line,
                rule: RuleId::L2,
                message: format!(
                    "`{}` is #[target_feature] but the caller is {}",
                    t.text,
                    match caller_fam {
                        Some(_) => "a #[target_feature] fn of a different ISA family",
                        None => "not a #[target_feature] fn",
                    }
                ),
                hint: "call it from a same-family #[target_feature] fn, or move the call \
                       into an Isa-gated dispatch module listed in lint.toml \
                       `dispatch_modules`"
                    .to_string(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, dispatch: &[&str]) -> Vec<Finding> {
        let ctx = FileCtx::new("t.rs", src);
        let mut index = TfIndex::new();
        index_file(&ctx, &mut index);
        let mut out = Vec::new();
        let dispatch: Vec<String> = dispatch.iter().map(|s| s.to_string()).collect();
        check(&ctx, &index, &dispatch, &mut out);
        out
    }

    const KERNEL: &str =
        "#[target_feature(enable = \"avx2\")]\nunsafe fn kern(x: u32) -> u32 { x }\n";

    #[test]
    fn call_from_plain_fn_is_flagged() {
        let src = format!("{KERNEL}fn caller() {{ unsafe {{ kern(1) }}; }}\n");
        let f = run(&src, &[]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::L2);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn call_from_same_family_tf_fn_passes() {
        let src = format!(
            "{KERNEL}#[target_feature(enable = \"avx2\")]\nunsafe fn outer() {{ kern(1); }}\n"
        );
        assert!(run(&src, &[]).is_empty());
    }

    #[test]
    fn call_from_other_family_tf_fn_is_flagged() {
        let src = format!(
            "{KERNEL}#[target_feature(enable = \"neon\")]\nunsafe fn outer() {{ kern(1); }}\n"
        );
        let f = run(&src, &[]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("different ISA family"));
    }

    #[test]
    fn dispatch_module_allowlist_passes_when_isa_gated() {
        let src = format!("{KERNEL}fn dispatch(isa: Isa) {{ unsafe {{ kern(1) }}; }}\n");
        assert!(run(&src, &["t.rs"]).is_empty());
    }

    #[test]
    fn dispatch_module_without_isa_reference_is_flagged() {
        let src = format!("{KERNEL}fn dispatch() {{ unsafe {{ kern(1) }}; }}\n");
        let f = run(&src, &["t.rs"]);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("never references"));
    }

    #[test]
    fn definition_itself_is_not_a_call() {
        assert!(run(KERNEL, &[]).is_empty());
    }
}
