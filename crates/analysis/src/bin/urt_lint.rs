//! `urt-lint` — command-line front-end for the `urt_analysis` analyzer.
//!
//! ```text
//! urt-lint [--json] [MODEL...]       lint the named built-in models
//! urt-lint --list                    list the built-in model names
//! urt-lint --budget-report [MODEL..] static timing report (URT3xx)
//! urt-lint --hash [MODEL...]         stable model content hashes
//! ```
//!
//! With no model names, the whole clean catalogue is linted. The exit
//! code is non-zero when any model produces an error-severity
//! diagnostic — or, under `--deny-warnings`, a warning-severity one.
//! `--codes URT3xx,URT207` keeps only findings whose code matches one of
//! the comma-separated patterns (a trailing `xx` is a family wildcard);
//! counting and the exit code apply to the filtered set.

use std::process::ExitCode;
use urt_analysis::cost_pass::{budget_report, CostModel};
use urt_analysis::{analyze, examples, render_json_report, severity_counts, Diagnostic};

const USAGE: &str = "usage: urt-lint [--json] [--list] [--deny-warnings] [--codes PATTERNS] [--budget-report] [--hash] [MODEL...]
       --deny-warnings   exit non-zero on warning-severity findings too
       --codes PATTERNS  comma-separated code filters, e.g. URT3xx,URT207 (trailing `xx` = family)
       --budget-report   print the static timing report (worst-case cost vs. budget + URT304 plan)
       --hash            print each model's stable content hash (the SystemCache compile key)
       models: built-in names (see --list), plus the seeded-* negative models";

/// One `--codes` entry: either an exact code or a family prefix.
enum CodePattern {
    Exact(String),
    Family(String),
}

impl CodePattern {
    fn parse(raw: &str) -> Self {
        match raw.strip_suffix("xx") {
            Some(prefix) if !prefix.is_empty() => CodePattern::Family(prefix.to_owned()),
            _ => CodePattern::Exact(raw.to_owned()),
        }
    }

    fn matches(&self, code: &str) -> bool {
        match self {
            CodePattern::Exact(c) => code == c,
            CodePattern::Family(p) => code.starts_with(p.as_str()),
        }
    }
}

fn filter_codes(diags: Vec<Diagnostic>, patterns: &[CodePattern]) -> Vec<Diagnostic> {
    if patterns.is_empty() {
        return diags;
    }
    diags.into_iter().filter(|d| patterns.iter().any(|p| p.matches(d.code))).collect()
}

fn main() -> ExitCode {
    let mut json = false;
    let mut list = false;
    let mut deny_warnings = false;
    let mut budget = false;
    let mut hash = false;
    let mut patterns: Vec<CodePattern> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--list" => list = true,
            "--deny-warnings" => deny_warnings = true,
            "--budget-report" => budget = true,
            "--hash" => hash = true,
            "--codes" => {
                let Some(value) = args.next() else {
                    eprintln!("urt-lint: --codes needs a value\n{USAGE}");
                    return ExitCode::from(2);
                };
                patterns.extend(value.split(',').filter(|s| !s.is_empty()).map(CodePattern::parse));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("urt-lint: unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
            other => names.push(other.to_owned()),
        }
    }

    if list {
        for name in examples::NAMES.iter().chain(examples::SEEDED) {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    if names.is_empty() {
        names = examples::NAMES.iter().map(|&s| s.to_owned()).collect();
    }

    if budget {
        return run_budget_report(&names, json);
    }

    if hash {
        return run_hash_report(&names, json);
    }

    let mut fail = false;
    let mut reports = Vec::new();
    for name in &names {
        let Some(model) = examples::by_name(name) else {
            eprintln!("urt-lint: unknown model `{name}` (try --list)");
            return ExitCode::from(2);
        };
        let diags = filter_codes(analyze(&model), &patterns);
        let (errors, warnings, infos) = severity_counts(&diags);
        fail |= errors > 0 || (deny_warnings && warnings > 0);
        if json {
            reports.push(render_json_report(model.name(), &diags));
        } else {
            println!("model `{}`: {} finding(s)", model.name(), diags.len());
            for d in &diags {
                println!("  {}", d.render_human().replace('\n', "\n  "));
            }
            println!(
                "  summary: {errors} error(s), {warnings} warning(s), {infos} info(s) — {}",
                if errors == 0 && !(deny_warnings && warnings > 0) { "OK" } else { "FAIL" }
            );
        }
    }
    if json {
        println!("[{}]", reports.join(","));
    }
    if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--budget-report`: the static timing view. Exit code mirrors plain
/// linting (a URT301 is an error) so CI can gate on it directly.
fn run_budget_report(names: &[String], json: bool) -> ExitCode {
    let cost = CostModel::shared();
    let mut fail = false;
    let mut reports = Vec::new();
    for name in names {
        let Some(model) = examples::by_name(name) else {
            eprintln!("urt-lint: unknown model `{name}` (try --list)");
            return ExitCode::from(2);
        };
        match budget_report(&model, cost) {
            Some(report) => {
                fail |= report.groups.iter().any(|g| g.budget_ns.is_some_and(|b| g.cost_ns > b));
                if json {
                    reports.push(report.render_json());
                } else {
                    println!("{}", report.render_human());
                }
            }
            None => {
                if json {
                    reports.push(format!(
                        "{{\"model\":{},\"calibrated\":{},\"groups\":null,\"recommendation\":null}}",
                        urt_analysis::diagnostic::json_string(model.name()),
                        cost.is_calibrated()
                    ));
                } else {
                    println!(
                        "budget report `{}`: no declared budgets — pass inactive",
                        model.name()
                    );
                }
            }
        }
    }
    if json {
        println!("[{}]", reports.join(","));
    }
    if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `--hash`: prints each model's stable content hash — the exact value
/// `urt_core::SystemCache` keys compilation on, so operators can check
/// whether two model revisions would share a cache entry without
/// compiling either. Hashes are deterministic across processes and
/// platforms; any model edit changes the value.
fn run_hash_report(names: &[String], json: bool) -> ExitCode {
    let mut reports = Vec::new();
    for name in names {
        let Some(model) = examples::by_name(name) else {
            eprintln!("urt-lint: unknown model `{name}` (try --list)");
            return ExitCode::from(2);
        };
        let hash = model.content_hash();
        if json {
            reports.push(format!(
                "{{\"model\":{},\"content_hash\":\"{hash:#018x}\"}}",
                urt_analysis::diagnostic::json_string(model.name()),
            ));
        } else {
            println!("{:#018x}  {}", hash, model.name());
        }
    }
    if json {
        println!("[{}]", reports.join(","));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{filter_codes, CodePattern};
    use urt_analysis::{analyze, examples, has_errors, severity_counts};

    #[test]
    fn seeded_model_drives_nonzero_exit_path() {
        let model = examples::by_name("seeded-violations").unwrap();
        assert!(has_errors(&analyze(&model)));
    }

    #[test]
    fn catalogue_drives_zero_exit_path() {
        for (name, model) in examples::all() {
            assert!(!has_errors(&analyze(&model)), "example `{name}`");
        }
    }

    #[test]
    fn severity_markers_render() {
        use urt_analysis::Severity;
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn hash_is_stable_per_model_and_distinct_across_models() {
        let fig2 = examples::by_name("fig2").unwrap();
        assert_eq!(fig2.content_hash(), examples::by_name("fig2").unwrap().content_hash());
        assert_ne!(fig2.content_hash(), examples::by_name("fig3").unwrap().content_hash());
    }

    #[test]
    fn code_patterns_match_exact_and_family() {
        let exact = CodePattern::parse("URT207");
        assert!(exact.matches("URT207"));
        assert!(!exact.matches("URT2071"));
        assert!(!exact.matches("URT206"));
        let family = CodePattern::parse("URT3xx");
        assert!(family.matches("URT301"));
        assert!(family.matches("URT305"));
        assert!(!family.matches("URT207"));
    }

    #[test]
    fn codes_filter_drives_counts_and_exit() {
        let model = examples::by_name("seeded-over-budget").unwrap();
        let all = analyze(&model);
        assert!(has_errors(&all));
        // Filtered to the timing family, the URT301 error survives...
        let timing = filter_codes(all.clone(), &[CodePattern::parse("URT3xx")]);
        assert!(has_errors(&timing));
        assert!(timing.iter().all(|d| d.code.starts_with("URT3")));
        // ...while a disjoint filter silences everything, exit 0.
        let none = filter_codes(all, &[CodePattern::parse("URT001")]);
        assert!(none.is_empty());
        let (errors, _, _) = severity_counts(&none);
        assert_eq!(errors, 0);
    }
}
